package authorindex

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func metricsFixture(t *testing.T) *Index {
	t.Helper()
	ix, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	for _, w := range GenerateCorpus(CorpusConfig{Seed: 11, Works: 120, ZipfS: 1.2}) {
		cp := *w
		cp.ID = 0
		if _, err := ix.Add(cp); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestMetricsIncrementalVsRebuild is the facade-level acceptance check:
// adds followed by deletes leave metrics byte-identical to a rebuild.
func TestMetricsIncrementalVsRebuild(t *testing.T) {
	ix := metricsFixture(t)
	for id := WorkID(1); id <= 40; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.TopAuthors(ByWeighted, 0)
	beforeJSON, _ := json.Marshal(before)
	ix.RebuildMetrics()
	after := ix.TopAuthors(ByWeighted, 0)
	afterJSON, _ := json.Marshal(after)
	if !bytes.Equal(beforeJSON, afterJSON) {
		t.Fatal("incremental metrics not byte-identical to rebuild")
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("incremental metrics differ structurally from rebuild")
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("verify after churn: %v", err)
	}
}

func TestFacadeAuthorMetrics(t *testing.T) {
	ix := metricsFixture(t)
	top := ix.TopAuthors(ByWorks, 1)
	if len(top) != 1 || top[0].Works < 1 {
		t.Fatalf("top = %+v", top)
	}
	m, ok := ix.AuthorMetrics(top[0].Heading)
	if !ok || !reflect.DeepEqual(m, top[0]) {
		t.Fatalf("AuthorMetrics(%q) = %+v, %v", top[0].Heading, m, ok)
	}
	if _, ok := ix.AuthorMetrics("Nobody, Known"); ok {
		t.Error("metrics for unknown heading")
	}
	if _, ok := ix.AuthorMetrics(""); ok {
		t.Error("metrics for unparseable heading")
	}
	sum := ix.MetricsSummary()
	if sum.Works != ix.Len() || sum.Authors == 0 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestMetricsSurviveReopen proves the tracker rebuilds from the store
// on Open, matching the state before close.
func TestMetricsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range GenerateCorpus(CorpusConfig{Seed: 2, Works: 50}) {
		cp := *w
		cp.ID = 0
		if _, err := ix.Add(cp); err != nil {
			t.Fatal(err)
		}
	}
	want := ix.TopAuthors(ByWeighted, 0)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got := ix2.TopAuthors(ByWeighted, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("metrics differ after reopen")
	}
}

func TestSchemesDiffer(t *testing.T) {
	ix := metricsFixture(t)
	harmonic := ix.TopAuthors(ByWeighted, 0)
	sum := ix.MetricsSummary()
	if err := ix.SetMetricsScheme(SchemeFractional); err != nil {
		t.Fatal(err)
	}
	fractional := ix.TopAuthors(ByWeighted, 0)
	// The swap rebuilds under the new weighting and keeps the totals.
	if got := ix.engine().Metrics().Weighting(); got != SchemeFractional {
		t.Fatalf("scheme after swap = %v", got)
	}
	if s := ix.MetricsSummary(); s.Works != sum.Works || s.Postings != sum.Postings {
		t.Fatalf("summary changed across scheme swap: %+v vs %+v", s, sum)
	}
	// Swapping to the current scheme is a no-op: same tracker, no new
	// root published.
	tr, seq := ix.engine().Metrics(), ix.root.Load().Seq
	if err := ix.SetMetricsScheme(SchemeFractional); err != nil {
		t.Fatal(err)
	}
	if ix.engine().Metrics() != tr || ix.root.Load().Seq != seq {
		t.Error("same-scheme swap replaced the tracker")
	}
	if reflect.DeepEqual(harmonic, fractional) {
		t.Fatal("harmonic and fractional credit identical over a multi-author corpus")
	}
	// Under the fractional scheme the two credit columns coincide.
	for _, m := range fractional {
		if m.Weighted != m.Fractional {
			t.Fatalf("fractional scheme: weighted %v != fractional %v for %s", m.Weighted, m.Fractional, m.Heading)
		}
	}
	// Invalid schemes are rejected at the facade.
	if err := ix.SetMetricsScheme(Scheme(99)); err == nil {
		t.Error("SetMetricsScheme accepted an invalid scheme")
	}
	if _, err := Open("", &Options{MetricsScheme: Scheme(99)}); err == nil {
		t.Error("Open accepted an invalid metrics scheme")
	}
}

// TestRenderStatisticsFormats is the acceptance check that Render with
// Statistics: true emits the contributor appendix in Text, Markdown and
// JSON.
func TestRenderStatisticsFormats(t *testing.T) {
	ix := metricsFixture(t)
	markers := map[Format]string{
		Text:     "— STATISTICS —",
		Markdown: "## Statistics",
		JSON:     `"statistics"`,
	}
	for f, marker := range markers {
		var buf bytes.Buffer
		if err := ix.Render(&buf, RenderOptions{Format: f, Statistics: true, StatsLimit: 5}); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !strings.Contains(buf.String(), marker) {
			t.Errorf("%v output missing %q", f, marker)
		}
	}
	// JSON appendix parses and ranks by weighted credit descending.
	var buf bytes.Buffer
	if err := ix.Render(&buf, RenderOptions{Format: JSON, Statistics: true, StatsLimit: 5}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Statistics struct {
			Top []AuthorMetrics `json:"top"`
		} `json:"statistics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Statistics.Top) != 5 {
		t.Fatalf("appendix has %d entries, want 5", len(doc.Statistics.Top))
	}
	for i := 1; i < len(doc.Statistics.Top); i++ {
		if doc.Statistics.Top[i].Weighted > doc.Statistics.Top[i-1].Weighted {
			t.Fatal("appendix not sorted by weighted credit")
		}
	}
}
