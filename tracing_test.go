// Tests for the traced facade: the Ctx entry points must produce
// well-formed span trees (every span ended once, children nested in
// their parents) across layers and across goroutines, and the plain
// methods — the disabled path — must not pay for tracing at all.
package authorindex

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// findSpan walks a snapshot tree depth-first for a span by name.
func findSpan(d *trace.SpanData, name string) *trace.SpanData {
	if d.Name == name {
		return d
	}
	for i := range d.Children {
		if f := findSpan(&d.Children[i], name); f != nil {
			return f
		}
	}
	return nil
}

// spanShape renders a span subtree as nested names, e.g. "a(b(c),d)",
// so a test can pin a whole tree at once.
func spanShape(d *trace.SpanData) string {
	if len(d.Children) == 0 {
		return d.Name
	}
	kids := make([]string, len(d.Children))
	for i := range d.Children {
		kids[i] = spanShape(&d.Children[i])
	}
	return d.Name + "(" + strings.Join(kids, ",") + ")"
}

// spanAttr returns the value of a span's attribute.
func spanAttr(d *trace.SpanData, key string) (string, bool) {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// tracedIndex opens an index of n shards holding three works, so scans
// have something to hit.
func tracedIndex(t *testing.T, n int) *Index {
	t.Helper()
	ix := openShards(t, t.TempDir(), n)
	t.Cleanup(func() { ix.Close() })
	for _, w := range []Work{
		sampleWork("Surface Mining Reclamation", "75:319 (1973)", "Cardi, Vincent P."),
		sampleWork("Coalbed Methane Ownership", "94:563 (1992)", "Lewin, Jeff L.", "Peng, Syd S."),
		sampleWork("Nuisance Law Revisited", "92:235 (1989)", "Lewin, Jeff L."),
	} {
		if _, err := ix.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestTracedSearchSpanTree pins the exact per-layer shape of a read at
// shards 1 and 4: one facade.shard_scan per shard, stamped with its
// shard and the epoch that served the read, each over the engine scan
// and its postings intersection, then the clone pass. The snapshot read
// path takes no lock, so no lock spans appear anywhere in the tree.
func TestTracedSearchSpanTree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ix := tracedIndex(t, shards)
			tracer := trace.NewTracer(trace.Config{})
			ctx, tr := tracer.StartRoot(context.Background(), "req-1", "test search")
			if got := ix.SearchCtx(ctx, "mining or nuisance", 10); len(got) != 2 {
				t.Fatalf("SearchCtx = %d works", len(got))
			}
			tr.Finish("test")
			if err := tr.Check(); err != nil {
				t.Fatalf("malformed trace: %v", err)
			}

			root := tr.Data().Root
			search := findSpan(&root, "facade.search")
			if search == nil {
				t.Fatalf("no facade.search span:\n%v", root)
			}
			scan := "facade.shard_scan(engine.title_scan(inverted.intersect))"
			want := "facade.search(" + strings.Repeat(scan+",", shards) + "facade.clone)"
			if got := spanShape(search); got != want {
				t.Fatalf("span tree\n got %s\nwant %s", got, want)
			}
			epoch, ok := spanAttr(search, "epoch")
			if !ok {
				t.Error("facade.search span lacks epoch attribute")
			}
			if got, _ := spanAttr(search, "shards"); got != fmt.Sprint(shards) {
				t.Errorf("facade.search shards = %q, want %d", got, shards)
			}
			seen := map[string]bool{}
			for i := 0; i < shards; i++ {
				c := &search.Children[i]
				if got, _ := spanAttr(c, "epoch"); got != epoch {
					t.Errorf("shard_scan epoch = %q, want the read's %q", got, epoch)
				}
				sh, ok := spanAttr(c, "shard")
				if !ok {
					t.Error("shard_scan lacks shard attribute")
				}
				seen[sh] = true
			}
			if len(seen) != shards {
				t.Errorf("shard_scan spans cover shards %v, want %d distinct", seen, shards)
			}
		})
	}
}

// TestTracedWriteSpanTree: a traced AddBatch carries the commit down
// to the WAL — store.put_batch under the facade span (the group commit
// runs before the home shards are known, since the store assigns the
// IDs that route works to shards), wal.encode and wal.fsync under
// that, and a lock.hold span covering the shard indexing phase.
func TestTracedWriteSpanTree(t *testing.T) {
	// A syncing index, unlike openT's NoSync one: the fsync span only
	// exists when the WAL actually reaches the disk.
	ix, err0 := Open(t.TempDir(), nil)
	if err0 != nil {
		t.Fatal(err0)
	}
	defer ix.Close()
	tracer := trace.NewTracer(trace.Config{})
	ctx, tr := tracer.StartRoot(context.Background(), "req-2", "test add")
	_, err := ix.AddBatchCtx(ctx, []Work{
		sampleWork("Batched One", "91:1 (1989)", "Pipeline, Walter A."),
		sampleWork("Batched Two", "91:2 (1989)", "Commit, Grace"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish("test")
	if err := tr.Check(); err != nil {
		t.Fatalf("malformed trace: %v", err)
	}
	root := tr.Data().Root
	fac := findSpan(&root, "facade.add_batch")
	if fac == nil {
		t.Fatal("no facade.add_batch span")
	}
	put := findSpan(fac, "store.put_batch")
	if put == nil {
		t.Fatal("store.put_batch not nested under facade.add_batch")
	}
	for _, name := range []string{"wal.encode", "wal.fsync"} {
		if findSpan(put, name) == nil {
			t.Errorf("store.put_batch lacks %q descendant", name)
		}
	}
	if findSpan(fac, "lock.hold") == nil {
		t.Fatal("no lock.hold span under facade.add_batch")
	}
}

// TestTracedRenderSpanTree: at shards 1 and 4 a render records the
// same tree — the gathered sections, then the render span with one
// child per letter section (the fixture headings file under C, L and
// P).
func TestTracedRenderSpanTree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ix := tracedIndex(t, shards)
			tracer := trace.NewTracer(trace.Config{})
			ctx, tr := tracer.StartRoot(context.Background(), "req-3", "test render")
			var sb strings.Builder
			if err := ix.RenderCtx(ctx, &sb, RenderOptions{Format: Text}); err != nil {
				t.Fatal(err)
			}
			tr.Finish("test")
			if err := tr.Check(); err != nil {
				t.Fatalf("malformed trace: %v", err)
			}
			root := tr.Data().Root
			fac := findSpan(&root, "facade.render")
			if fac == nil {
				t.Fatal("no facade.render span")
			}
			want := "facade.render(render.sections,render(render.section C,render.section L,render.section P))"
			if got := spanShape(fac); got != want {
				t.Errorf("span tree\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestTracedRenderHonorsCancel: a context canceled mid-render aborts
// between sections with ctx.Err instead of writing the whole artifact.
func TestTracedRenderHonorsCancel(t *testing.T) {
	ix := tracedIndex(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ix.RenderCtx(ctx, io.Discard, RenderOptions{Format: Text})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("canceled render returned %v, want context.Canceled", err)
	}
}

// TestTracingDisabledPathAllocs: calling the Ctx variants with a bare
// context.Background() — what the plain methods do — must allocate
// exactly as much as an untraced call. The whole tracing subsystem
// rides on this: the facade threads contexts unconditionally.
func TestTracingDisabledPathAllocs(t *testing.T) {
	ix := tracedIndex(t, 1)
	ctx := context.Background()
	plain := testing.AllocsPerRun(200, func() {
		if got := ix.Search("mining", 4); len(got) == 0 {
			t.Fatal("no hits")
		}
	})
	traced := testing.AllocsPerRun(200, func() {
		if got := ix.SearchCtx(ctx, "mining", 4); len(got) == 0 {
			t.Fatal("no hits")
		}
	})
	if traced > plain {
		t.Errorf("disabled-path SearchCtx allocates %v/op vs %v/op untraced", traced, plain)
	}
}

// TestTracedFacadeHammer runs traced readers against traced writers
// under -race: every resulting trace must still be a well-formed tree
// (spans ended exactly once, children nested), proving the context
// propagation does not race even while the lock spans interleave.
func TestTracedFacadeHammer(t *testing.T) {
	ix := tracedIndex(t, 1)
	tracer := trace.NewTracer(trace.Config{RingSize: 4})

	const (
		readers = 4
		writers = 2
		iters   = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, (readers+writers)*iters)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, tr := tracer.StartRoot(context.Background(), "", "hammer read")
				switch i % 3 {
				case 0:
					ix.SearchCtx(ctx, "mining", 8)
				case 1:
					ix.YearRangeCtx(ctx, 1970, 1995, 8)
				default:
					ix.AuthorsCtx(ctx, "", 8)
				}
				tr.Finish("hammer read")
				if err := tr.Check(); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, tr := tracer.StartRoot(context.Background(), "", "hammer write")
				w := sampleWork(
					fmt.Sprintf("Hammer Work %d-%d", g, i),
					fmt.Sprintf("9%d:%d (199%d)", g, i+1, g),
					fmt.Sprintf("Hammer, Writer %d.", g))
				if _, err := ix.AddCtx(ctx, w); err != nil {
					errs <- err
				}
				tr.Finish("hammer write")
				if err := tr.Check(); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
