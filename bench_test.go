// The evaluation suite. The source paper is front matter with no
// evaluation section, so these experiments (E1–E14) are the
// reproduction's own: each Benchmark family measures one claim the
// engine makes, against a baseline where it has one, and names its
// experiment in its comment. E2, BenchmarkLookup, sits in
// internal/btree beside the test-only baselines it compares against.
// The end-to-end load benchmark is authbench (bash authbench/run.sh).
//
//	go test -run '^$' -bench=. -benchmem
package authorindex

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"testing"

	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/inverted"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/storage"
	"repro/internal/wal"
)

func corpus(b *testing.B, n int) []*model.Work {
	b.Helper()
	return gen.Generate(gen.Config{Seed: 1, Works: n, ZipfS: 1.1})
}

func builtIndex(b *testing.B, n int) *core.Index {
	b.Helper()
	ix, err := core.Rebuild(collate.Default(), corpus(b, n))
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// E1 — index build throughput vs corpus size.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		works := corpus(b, n)
		b.Run(fmt.Sprintf("works=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Rebuild(collate.Default(), works); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "works/s")
		})
	}
}

// E3 — incremental maintenance vs full rebuild at two batch sizes.
func BenchmarkIncremental(b *testing.B) {
	base := 50_000
	all := corpus(b, base+10_000)
	baseWorks, extra := all[:base], all[base:]
	for _, batch := range []int{1, 100, 10_000} {
		b.Run(fmt.Sprintf("incremental/batch=%d", batch), func(b *testing.B) {
			ix, err := core.Rebuild(collate.Default(), baseWorks)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, w := range extra[:batch] {
					if err := ix.Add(w); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for _, w := range extra[:batch] {
					ix.Remove(w)
				}
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("rebuild/batch=%d", batch), func(b *testing.B) {
			works := append(baseWorks[:base:base], extra[:batch]...)
			for i := 0; i < b.N; i++ {
				if _, err := core.Rebuild(collate.Default(), works); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E4 — render throughput per format, plus the title and subject indexes
// that complete the front matter.
func BenchmarkRender(b *testing.B) {
	works := corpus(b, 10_000)
	ix, err := core.Rebuild(collate.Default(), works)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, emit func(*bytes.Buffer) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := emit(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
	for _, f := range []render.Format{render.Text, render.TSV, render.Markdown, render.CSV, render.JSON} {
		run(f.String(), func(buf *bytes.Buffer) error {
			return render.Render(buf, ix, render.Options{Format: f})
		})
	}
	run("title", func(buf *bytes.Buffer) error {
		return render.TitleIndex(buf, works, collate.Default(), render.Options{Format: render.Text})
	})
	run("subject", func(buf *bytes.Buffer) error {
		return render.SubjectIndex(buf, works, collate.Default(), render.Options{Format: render.Text})
	})
	// The authbench publish op through the facade: on the workload's
	// 4k-work corpus, the paginated author index with both appendices,
	// then the title and subject indexes.
	pub := frontMatterIndex(b, publishCorpus(4000))
	run("publish", func(buf *bytes.Buffer) error {
		publishFrontMatter(b, pub, buf, 0)
		return nil
	})
}

// E5 — collation key construction per scheme.
func BenchmarkCollate(b *testing.B) {
	pool := gen.AuthorPool(gen.Config{Seed: 1, Authors: 10_000, Works: 1})
	schemes := []struct {
		name string
		key  func(model.Author) []byte
	}{
		{"naive-bytes", func(a model.Author) []byte { return []byte(a.Display()) }},
		{"letter-by-letter", func(a model.Author) []byte {
			return collate.KeyAuthor(a, collate.Options{Scheme: collate.LetterByLetter, GroupParticle: true})
		}},
		{"word-by-word", func(a model.Author) []byte {
			return collate.KeyAuthor(a, collate.Default())
		}},
	}
	for _, s := range schemes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.key(pool[i%len(pool)])
			}
		})
	}
}

// E6 — recovery: pure WAL replay vs snapshot load.
func BenchmarkRecovery(b *testing.B) {
	const n = 10_000
	works := corpus(b, n)
	prepare := func(b *testing.B, compact bool) string {
		b.Helper()
		dir, err := os.MkdirTemp("", "bench-recovery-*")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { os.RemoveAll(dir) })
		st, err := storage.Open(dir, storage.Options{WAL: wal.Options{NoSync: true}})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range works {
			if _, err := st.PutBatch([]*model.Work{w}); err != nil {
				b.Fatal(err)
			}
		}
		if compact {
			if err := st.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, mode := range []struct {
		name    string
		compact bool
	}{{"wal-replay", false}, {"snapshot", true}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := prepare(b, mode.compact)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := storage.Open(dir, storage.Options{WAL: wal.Options{NoSync: true}})
				if err != nil {
					b.Fatal(err)
				}
				if st.Len() != n {
					b.Fatalf("recovered %d works", st.Len())
				}
				st.Close()
			}
		})
	}
}

// E7 — title search: inverted index vs corpus scan, and the engine's
// limit-20 answer. The engine's title postings are in citation order,
// so its search takes the first 20 matches with no per-match lookup and
// no sort: its cost should track the limit, not the match count.
func BenchmarkSearch(b *testing.B) {
	const n = 50_000
	works := corpus(b, n)
	inv := inverted.New(cmp.Compare[model.WorkID])
	titles := make([]string, 0, n)
	for _, w := range works {
		inv.Add(w.ID, w.Title)
		titles = append(titles, w.Title)
	}
	q := inverted.ParseQuery("surface mining")
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(inv.Eval(q)) == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, title := range titles {
				toks := inverted.Tokenize(title)
				found := 0
				for _, tok := range toks {
					if tok == "surface" || tok == "mining" {
						found++
					}
				}
				if found >= 2 {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
	eng := query.New(collate.Default())
	if err := eng.LoadAll(works); err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{"mining", "surface mining"} {
		b.Run(fmt.Sprintf("engine/q=%s/limit=20", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(eng.TitleSearchView(q, 20)) != 20 {
					b.Fatal("fewer than 20 hits")
				}
			}
		})
	}
}

// E8 — TSV ingest throughput.
func BenchmarkIngest(b *testing.B) {
	ix := builtIndex(b, 10_000)
	var tsv bytes.Buffer
	if err := render.Render(&tsv, ix, render.Options{Format: render.TSV}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tsv.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ingest.TSV(bytes.NewReader(tsv.Bytes()), ingest.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E10 — author metrics: incremental maintenance and top-k ranking.
//
// Incremental measures one add+remove round trip against trackers
// holding corpora of increasing size: per-mutation cost must stay flat
// as the corpus grows (the incremental-maintenance claim). TopK and
// Rebuild scale with corpus size by design.
func BenchmarkMetrics(b *testing.B) {
	sizes := []int{1_000, 10_000, 100_000}
	for _, n := range sizes {
		all := corpus(b, n+1)
		works, extra := all[:n], all[n]
		tr := metrics.NewEngine(metrics.Harmonic)
		for _, w := range works {
			tr.Add(w)
		}
		b.Run(fmt.Sprintf("Incremental/corpus=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Add(extra)
				tr.Remove(extra)
			}
		})
		b.Run(fmt.Sprintf("TopK/corpus=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(tr.TopAuthors(metrics.ByWeighted, 10)) == 0 {
					b.Fatal("no authors ranked")
				}
			}
			b.ReportMetric(float64(tr.Len()), "authors")
		})
		b.Run(fmt.Sprintf("Rebuild/corpus=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fresh := metrics.NewEngine(metrics.Harmonic)
				fresh.Rebuild(works)
			}
		})
	}
}

// E11 — coauthorship graph: incremental maintenance, path queries and
// centrality.
//
// Incremental measures one add+remove round trip against graphs holding
// corpora of increasing size: per-mutation cost is O(authors-per-work²)
// and must stay flat as the corpus grows (the incremental-maintenance
// claim — the quadratic term is the pairwise edge update over a short
// author list). Path, PageRank and Rebuild scale with corpus size by
// design.
func BenchmarkGraph(b *testing.B) {
	sizes := []int{1_000, 10_000, 100_000}
	for _, n := range sizes {
		all := corpus(b, n+1)
		works, extra := all[:n], all[n]
		g := graph.NewFromWorks(0, works)
		endpoints := graphEndpoints(works)
		b.Run(fmt.Sprintf("Incremental/corpus=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Add(extra)
				g.Remove(extra)
			}
		})
		b.Run(fmt.Sprintf("Path/corpus=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				from := endpoints[i%len(endpoints)]
				to := endpoints[(i+len(endpoints)/2)%len(endpoints)]
				if _, ok := g.Path(from, to); ok {
					hits++
				}
			}
			b.ReportMetric(float64(g.Components()), "components")
		})
		b.Run(fmt.Sprintf("PageRank/corpus=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.SetDamping(0.85 - float64(i%2)*0.05) // bust the cache each round
				if len(g.TopCentral(10)) == 0 {
					b.Fatal("no central authors")
				}
			}
			b.ReportMetric(float64(g.Nodes()), "nodes")
		})
		b.Run(fmt.Sprintf("Rebuild/corpus=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fresh := graph.New(0)
				fresh.Rebuild(works)
			}
		})
	}
}

// graphEndpoints samples headings across the corpus for path probes.
func graphEndpoints(works []*model.Work) []string {
	var out []string
	for i := 0; i < len(works); i += max(1, len(works)/64) {
		out = append(out, works[i].Authors[0].Display())
	}
	return out
}

// E12 — the concurrent ordered-query read path through the facade:
// mixed title/year/subject/rank queries under b.RunParallel at three
// corpus sizes. The family exists to keep the zero-copy read path
// honest — precomputed citation keys, galloping intersection, and
// clone-after-unlock should hold allocs/op near the result size, not
// the match count.
func BenchmarkQueryParallel(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		// Corpus construction is lazy and shared across the size's
		// sub-benchmarks, so a -bench filter that excludes a size never
		// pays for indexing it.
		var ix *Index
		var subject string
		setup := func(b *testing.B) {
			if ix != nil {
				return
			}
			works := corpus(b, n)
			var err error
			if ix, err = Open("", nil); err != nil {
				b.Fatal(err)
			}
			for _, w := range works {
				if _, err := ix.Add(*w); err != nil {
					b.Fatal(err)
				}
			}
			subject = ix.Subjects()[0].Subject
		}
		classes := []struct {
			name string
			run  func(i int) int
		}{
			{"title", func(i int) int { return len(ix.Search("surface mining", 20)) }},
			{"year", func(i int) int { return len(ix.YearRange(1970, 1980, 20)) }},
			{"subject", func(i int) int { return len(ix.BySubject(subject, 20)) }},
			{"rank", func(i int) int { return len(ix.TopAuthors(ByWeighted, 10)) }},
		}
		for _, cl := range classes {
			b.Run(fmt.Sprintf("%s/works=%d", cl.name, n), func(b *testing.B) {
				setup(b)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						if cl.run(i) == 0 {
							b.Errorf("%s query matched nothing", cl.name)
							return
						}
						i++
					}
				})
			})
		}
		b.Run(fmt.Sprintf("mixed/works=%d", n), func(b *testing.B) {
			setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if classes[i%len(classes)].run(i) == 0 {
						b.Error("mixed query matched nothing")
						return
					}
					i++
				}
			})
		})
		if ix != nil {
			ix.Close()
		}
	}
}

// E13 — the batched write pipeline: AddBatch throughput vs batch size
// under both durability policies, against growing resident corpora.
// Group commit amortizes the WAL append + fsync and the facade lock
// over the whole batch, so works/s should climb steeply with batch size
// when fsync is on, and per-work indexing cost should stay flat as the
// corpus grows. The fsync batch=1 sub-benchmark is the per-work
// baseline: one WAL append and one fsync per work.
func BenchmarkWriteBatch(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noSync bool
	}{{"fsync", false}, {"nosync", true}} {
		for _, resident := range []int{1_000, 100_000} {
			// One shared index per (mode, corpus) pair, preloaded in large
			// batches; construction is lazy so -bench filters skip it.
			// (os.MkdirTemp, not b.TempDir: the benchmark runner cleans
			// b.TempDir between calibration runs, under the shared index.)
			var ix *Index
			var dir string
			setup := func(b *testing.B) {
				if ix != nil {
					return
				}
				var err error
				if dir, err = os.MkdirTemp("", "bench-writebatch-*"); err != nil {
					b.Fatal(err)
				}
				if ix, err = Open(dir, &Options{NoSync: mode.noSync}); err != nil {
					b.Fatal(err)
				}
				seed := corpus(b, resident)
				for start := 0; start < len(seed); start += 4096 {
					chunk := make([]Work, 0, 4096)
					for _, w := range seed[start:min(start+4096, len(seed))] {
						cp := *w
						cp.ID = 0
						chunk = append(chunk, cp)
					}
					if _, err := ix.AddBatch(chunk); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, batch := range []int{1, 16, 256, 4096} {
				b.Run(fmt.Sprintf("%s/corpus=%d/batch=%d", mode.name, resident, batch), func(b *testing.B) {
					setup(b)
					fresh := func(i int) Work {
						return Work{
							Title:    fmt.Sprintf("Batched Work %d", i),
							Citation: Citation{Volume: 99, Page: i + 1, Year: 1999},
							Authors:  []Author{{Family: fmt.Sprintf("Writer%d", i%977), Given: "W."}},
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						works := make([]Work, batch)
						for j := range works {
							works[j] = fresh(i*batch + j)
						}
						ids, err := ix.AddBatch(works)
						if err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						if err := ix.DeleteBatch(ids); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "works/s")
				})
			}
			if ix != nil {
				ix.Close()
				os.RemoveAll(dir)
			}
		}
	}
}

// E14 — cold start: Open over a compacted store of growing size. Open
// bulk-loads the decoded corpus through every index bottom-up (with the
// tracker, graph included, rebuilding beside them), so wall time per
// work should stay near-flat as the corpus grows instead of paying
// per-work tree descents. The 1M corpus is skipped under -short so the
// CI smoke run stays cheap. Each store also holds cross-references, so
// Open restores them through its batched path, and each size's first
// opened index is checked with Verify, outside the timer.
func BenchmarkOpen(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		if n > 100_000 && testing.Short() {
			continue
		}
		verified := false
		b.Run(fmt.Sprintf("works=%d", n), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "bench-open-*")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { os.RemoveAll(dir) })
			st, err := storage.Open(dir, storage.Options{WAL: wal.Options{NoSync: true}})
			if err != nil {
				b.Fatal(err)
			}
			works := corpus(b, n)
			for start := 0; start < len(works); start += 8192 {
				if _, err := st.PutBatch(works[start:min(start+8192, len(works))]); err != nil {
					b.Fatal(err)
				}
			}
			refs := 0
			for i := 0; i < 16; i++ {
				from, to := works[i].Authors[0], works[i+20].Authors[0]
				if from.Display() == to.Display() {
					continue
				}
				if err := st.AddCrossRef(storage.CrossRef{From: from, To: to}); err != nil {
					b.Fatal(err)
				}
				refs++
			}
			if err := st.Compact(); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := Open(dir, &Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if ix.Len() != n {
					b.Fatalf("opened %d works, want %d", ix.Len(), n)
				}
				b.StopTimer()
				if !verified {
					if got := ix.Stats().CrossRefs; got != refs {
						b.Fatalf("opened %d cross-references, want %d", got, refs)
					}
					if err := ix.Verify(); err != nil {
						b.Fatalf("Verify after Open: %v", err)
					}
					verified = true
				}
				ix.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "works/s")
		})
	}
}

// E9 / end-to-end facade benchmark: the cost one Add pays through the
// full stack (validation, WAL append, every index) under each
// durability policy.
func BenchmarkFacadeAdd(b *testing.B) {
	modes := []struct {
		name    string
		durable bool
		noSync  bool
	}{
		{"memory", false, true},
		{"durable-nosync", true, true},
		{"durable-fsync", true, false},
	}
	for _, mode := range modes {
		dir := ""
		if mode.durable {
			dir = b.TempDir()
		}
		b.Run(mode.name, func(b *testing.B) {
			ix, err := Open(dir, &Options{NoSync: mode.noSync})
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := ix.Add(Work{
					Title:    fmt.Sprintf("Benchmark Work %d", i),
					Citation: Citation{Volume: 90, Page: i + 1, Year: 1988},
					Authors:  []Author{{Family: fmt.Sprintf("Family%d", i%977), Given: "A."}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
