// Tests for Stats and the metrics scrape: Authors counts distinct index
// headings, a scrape's cost does not grow with the corpus, and a scrape
// beside committing writers agrees with Stats once the writers stop.
// Subtests named shards=N open with that Options.Shards value, which
// every accepted value leaves inert: each must pass identically.
package authorindex

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// scrapeValue returns the value of an unlabelled sample in a Prometheus
// exposition.
func scrapeValue(t *testing.T, exposition []byte, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("exposition lacks %s", name)
	return 0
}

// TestStatsAuthorsDistinctHeadings pins what Stats.Authors counts: the
// distinct headings of the printed index. Case and diacritic variants
// are distinct headings, a heading filed three times counts once, and a
// heading that exists only as a see-also source counts too. The metrics tracker never sees
// that last heading, so it cannot be the source of Authors.
func TestStatsAuthorsDistinctHeadings(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ix := openShards(t, t.TempDir(), shards)
			defer ix.Close()
			if _, err := ix.AddBatch([]Work{
				sampleWork("Variant One", "80:1 (1978)", "Müller, Karl"),
				sampleWork("Variant Two", "80:2 (1978)", "Muller, Karl"),
				sampleWork("Variant Three", "80:3 (1978)", "MULLER, Karl"),
				sampleWork("Filed Once", "81:1 (1979)", "Thrice, Filed A."),
				sampleWork("Filed Twice", "81:2 (1979)", "Thrice, Filed A."),
				sampleWork("Filed Thrice", "81:3 (1979)", "Thrice, Filed A."),
			}); err != nil {
				t.Fatal(err)
			}
			if err := ix.AddSeeAlso("Alias, Only S.", "Thrice, Filed A."); err != nil {
				t.Fatal(err)
			}
			st := ix.Stats()
			const want = 5 // three variants, the thrice-filed heading, the see-also source
			if st.Authors != want {
				t.Errorf("Stats().Authors = %d, want %d", st.Authors, want)
			}
			if n := len(ix.Authors("", 0)); st.Authors != n {
				t.Errorf("Stats().Authors = %d, index lists %d headings", st.Authors, n)
			}
			if tracked := ix.MetricsSummary().Authors; tracked == st.Authors {
				t.Errorf("MetricsSummary().Authors = %d equals Stats().Authors; the see-also-only heading must tell them apart", tracked)
			}
		})
	}
}

// scrapeCorpus opens an in-memory index at the given Options.Shards
// holding n generated works, committed as one batch so the store
// counters are the same at every size.
func scrapeCorpus(t *testing.T, shards, n int) *Index {
	t.Helper()
	ix, err := Open("", &Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	works := gen.Generate(gen.Config{Seed: 1, Works: n, ZipfS: 1.1})
	batch := make([]Work, len(works))
	for i, w := range works {
		batch[i] = *w.Clone()
		batch[i].ID = 0
	}
	if _, err := ix.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestScrapeAllocsIndependentOfCorpus: one WritePrometheus allocates the
// same at 1k and 8k works, at shards 1 and 4. No callback walks the
// headings or allocates per work.
func TestScrapeAllocsIndependentOfCorpus(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			allocs := func(n int) float64 {
				ix := scrapeCorpus(t, shards, n)
				reg := obs.NewRegistry()
				ix.RegisterMetrics(reg)
				return testing.AllocsPerRun(20, func() {
					if err := reg.WritePrometheus(io.Discard); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(1000), allocs(8000)
			if small != large {
				t.Errorf("WritePrometheus allocates %v/op at 1k works, %v/op at 8k", small, large)
			}
		})
	}
}

// TestMetricsOnlyWhereRegistered: RegisterMetrics files the index's own
// histograms, so every registry it is given shows the same samples,
// those recorded before the call included.
func TestMetricsOnlyWhereRegistered(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	ix.Search("anything", 0)
	a, b := obs.NewRegistry(), obs.NewRegistry()
	ix.RegisterMetrics(a)
	if _, err := ix.Add(sampleWork("Registered Work", "90:1 (1988)", "Counted, Once A.")); err != nil {
		t.Fatal(err)
	}
	ix.RegisterMetrics(b)
	for i, r := range []*obs.Registry{a, b} {
		for _, h := range []struct {
			name string
			op   []string
		}{
			{"authdex_op_duration_seconds", []string{"op", "open"}},
			{"authdex_op_duration_seconds", []string{"op", "search"}},
			{"authdex_op_duration_seconds", []string{"op", "add"}},
			{"authdex_snapshot_swap_duration_seconds", nil},
			{"authdex_lock_wait_duration_seconds", nil},
		} {
			if n := r.Histogram(h.name, "", h.op...).Count(); n != 1 {
				t.Errorf("registry %d: %s%v has %d samples, want 1", i, h.name, h.op, n)
			}
		}
	}
}

// TestTwoIndexesShareNoSample: two durable indexes in one process, each
// registered on its own registry. Each registry shows one sample per
// load phase, from its own Open, and one write to the first is one WAL
// fsync, one frame encode and one store encode on the first registry
// and none on the second.
func TestTwoIndexesShareNoSample(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		seed := openT(t, dir)
		if _, err := seed.Add(sampleWork(fmt.Sprintf("Seeded %d", i), "90:1 (1988)", "Seed, Ada B.")); err != nil {
			t.Fatal(err)
		}
		if err := seed.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var ixs []*Index
	var regs []*obs.Registry
	for _, dir := range dirs {
		ix, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		reg := obs.NewRegistry()
		ix.RegisterMetrics(reg)
		ixs, regs = append(ixs, ix), append(regs, reg)
	}
	if _, err := ixs[0].Add(sampleWork("Written Once", "90:2 (1988)", "Write, Only A.")); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 0} {
		for _, name := range []string{"authdex_wal_fsync_duration_seconds",
			"authdex_wal_frame_encode_duration_seconds", "authdex_storage_encode_duration_seconds"} {
			if n := regs[i].Histogram(name, "").Count(); n != want {
				t.Errorf("registry %d: %s has %d samples, want %d", i, name, n, want)
			}
		}
		for _, phase := range []string{"total", "validate", "sort_keys", "id_index", "author_index",
			"inverted", "citation_trees", "subjects", "metrics"} {
			if n := regs[i].Histogram("authdex_load_phase_duration_seconds", "", "phase", phase).Count(); n != 1 {
				t.Errorf("registry %d: load phase %s has %d samples, want 1", i, phase, n)
			}
		}
	}
}

// TestScrapeFsyncCountIsWALSyncs: the WAL's fsync count is one series,
// the fsync histogram's count. After durable writes it equals
// Stats().WALSyncs, and no second counter repeats it.
func TestScrapeFsyncCountIsWALSyncs(t *testing.T) {
	ix, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	reg := obs.NewRegistry()
	ix.RegisterMetrics(reg)
	if _, err := ix.Add(sampleWork("Synced One", "90:1 (1988)", "Sync, Ada B.")); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AddBatch([]Work{
		sampleWork("Synced Two", "90:2 (1988)", "Sync, Ada B."),
		sampleWork("Synced Three", "90:3 (1988)", "Sync, Ada B."),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	syncs := ix.Stats().WALSyncs
	if syncs == 0 {
		t.Fatal("durable writes issued no fsync")
	}
	if got := scrapeValue(t, buf.Bytes(), "authdex_wal_fsync_duration_seconds_count"); got != float64(syncs) {
		t.Errorf("scraped authdex_wal_fsync_duration_seconds_count = %v, Stats().WALSyncs = %d", got, syncs)
	}
	if bytes.Contains(buf.Bytes(), []byte("authdex_wal_syncs_total")) {
		t.Error("scrape still exports authdex_wal_syncs_total beside the fsync histogram's count")
	}
}

// TestScrapeBesideWriters: two writers commit batches while a goroutine
// scrapes (run it under -race). Once the writers stop, the
// scraped authdex_authors and authdex_works equal Stats.
func TestScrapeBesideWriters(t *testing.T) {
	ix := openT(t, t.TempDir())
	defer ix.Close()
	reg := obs.NewRegistry()
	ix.RegisterMetrics(reg)

	const writers, batches, perBatch = 2, 10, 8
	done := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				scraped <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]Work, perBatch)
				for i := range batch {
					batch[i] = sampleWork(
						fmt.Sprintf("Scraped Work %d-%d-%d", g, b, i),
						fmt.Sprintf("%d:%d (1990)", 70+g, b*perBatch+i+1),
						fmt.Sprintf("Writer%d, Batch %d.", g, i%5),
						fmt.Sprintf("Shared, Author %d.", i%3))
				}
				if _, err := ix.AddBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if got := scrapeValue(t, buf.Bytes(), "authdex_authors"); got != float64(st.Authors) {
		t.Errorf("scraped authdex_authors = %v, Stats().Authors = %d", got, st.Authors)
	}
	if got := scrapeValue(t, buf.Bytes(), "authdex_works"); got != float64(st.Works) {
		t.Errorf("scraped authdex_works = %v, Stats().Works = %d", got, st.Works)
	}
	// Five headings per writer plus three shared ones.
	if want := writers*5 + 3; st.Authors != want {
		t.Errorf("Stats().Authors = %d, want %d", st.Authors, want)
	}
}
