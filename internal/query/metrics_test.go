package query

import (
	"reflect"
	"testing"

	"repro/internal/collate"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// TestEngineFeedsMetrics proves the engine keeps its tracker in sync
// through adds, replacements and removals, and that the incremental
// state matches a from-scratch rebuild over the indexed corpus exactly.
func TestEngineFeedsMetrics(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 3, Works: 200, ZipfS: 1.1})
	e := New(collate.Default())
	for _, w := range works {
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	// Replace one work (same ID, different authors) and remove a batch.
	repl := works[10].Clone()
	repl.Authors = repl.Authors[:1]
	if err := e.Add(repl); err != nil {
		t.Fatal(err)
	}
	for _, w := range works[50:90] {
		e.Remove(w.ID)
	}

	before := e.Metrics().TopAuthors(metrics.ByWeighted, 0)
	sum := e.Metrics().Summary()
	if sum.Works != e.Len() {
		t.Fatalf("metrics track %d works, engine %d", sum.Works, e.Len())
	}
	fresh := metrics.NewEngine(metrics.Harmonic)
	fresh.Rebuild(e.AllWorks())
	if after := fresh.TopAuthors(metrics.ByWeighted, 0); !reflect.DeepEqual(before, after) {
		t.Fatal("incremental metrics differ from rebuilt metrics")
	}
}

func TestEngineAuthorMetricsLookup(t *testing.T) {
	e := New(collate.Default())
	works := gen.Generate(gen.Config{Seed: 5, Works: 30})
	for _, w := range works {
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	heading := works[0].Authors[0].Display()
	m, ok := e.AuthorMetrics(heading)
	if !ok || m.Heading != heading || m.Works < 1 {
		t.Fatalf("AuthorMetrics(%q) = %+v, %v", heading, m, ok)
	}
	if _, ok := e.AuthorMetrics("Nobody, Known"); ok {
		t.Error("lookup of unknown heading succeeded")
	}
	if _, ok := e.AuthorMetrics(""); ok {
		t.Error("lookup of empty heading succeeded")
	}
}

func TestClampLimit(t *testing.T) {
	tests := []struct{ n, def, want int }{
		{-1, 20, 20},
		{-100, 7, 7},
		{0, 20, MaxLimit},
		{1, 20, 1},
		{20, 20, 20},
		{MaxLimit, 20, MaxLimit},
		{MaxLimit + 1, 20, MaxLimit},
		{1 << 40, 20, MaxLimit},
	}
	for _, tc := range tests {
		if got := ClampLimit(tc.n, tc.def); got != tc.want {
			t.Errorf("ClampLimit(%d, %d) = %d, want %d", tc.n, tc.def, got, tc.want)
		}
	}
}
