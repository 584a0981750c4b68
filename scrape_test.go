// Tests for Stats and the metrics scrape: Authors counts distinct index
// headings at every shard count, a scrape's cost does not grow with
// the corpus, and a scrape beside committing writers agrees with Stats
// once the writers stop.
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
// are distinct headings, a heading filed three times counts once (at
// shards=4 its works sit on several shards), and a heading that exists
// only as a see-also source counts too. The metrics tracker never sees
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
			if shards > 1 {
				homes := map[int]bool{}
				for _, w := range ix.Search("filed", 0) {
					homes[ix.shards.ForWork(w.ID)] = true
				}
				if len(homes) < 2 {
					t.Fatalf("the thrice-filed heading sits on %d shard(s); the test needs it split", len(homes))
				}
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

// scrapeCorpus opens an in-memory index of the given shard count
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
// same at 1k and 8k works, at shards 1 and 4. Only authdex_authors walks
// the headings, and the walk allocates per shard, not per heading.
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

// TestScrapeBesideWriters: writers commit batches at shards=4 while a
// goroutine scrapes (run it under -race). Once the writers stop, the
// scraped authdex_authors and authdex_works equal Stats.
func TestScrapeBesideWriters(t *testing.T) {
	ix := openShards(t, t.TempDir(), 4)
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
