package query

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/collate"
	"repro/internal/gen"
)

// TestHeapPerWork pins the heap an indexed corpus costs per work: the
// entries and their key buffers, the ID, year and citation trees, the
// author index and the title and subject postings. Each work carries
// one key buffer that all three work trees file slices of, and no
// per-work bookkeeping map or cached subject-key slice; a second copy
// of any key, or a per-work map entry, breaks the bounds. Both paths
// retain the given works, which are allocated before the baseline, so
// a clone of each work on the way in breaks the AddBatch bounds too.
func TestHeapPerWork(t *testing.T) {
	const n = 20_000
	works := gen.Generate(gen.Config{Seed: 5, Works: n})
	for _, c := range []struct {
		name            string
		load            func(e *Engine) error
		maxObjs, maxLen float64
	}{
		// 3.53 objects and 541 bytes per work; the code that kept three
		// keys per work and the author index's per-work ref-count map
		// held 6.03 and 727–733.
		{"LoadCorpus", func(e *Engine) error {
			return e.loadCorpus(context.Background(), works)
		}, 3.75, 600},
		// 4.78 objects and 811 bytes per work; the engine that filed a
		// clone of each work held 7.79 and 1,038.
		{"AddBatch", func(e *Engine) error {
			for i := 0; i < n; i += 4096 {
				if err := e.AddBatch(works[i:min(i+4096, n)]); err != nil {
					return err
				}
			}
			return nil
		}, 5.5, 900},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			e := New(collate.Default())
			if err := c.load(e); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(works)
			runtime.KeepAlive(e)
			objs := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
			size := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
			t.Logf("%d works: %.2f heap objects and %.0f bytes per work", n, objs, size)
			if objs > c.maxObjs || size > c.maxLen {
				t.Errorf("engine holds %.2f heap objects and %.0f bytes per work, want <= %.2f and <= %.0f",
					objs, size, c.maxObjs, c.maxLen)
			}
		})
	}
}
