package authorindex

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/render"
)

// renderTitlesSubjects renders the text title index, then the subject
// index, through the facade.
func renderTitlesSubjects(t testing.TB, ix *Index) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.RenderTitleIndex(&buf, RenderOptions{Format: Text}); err != nil {
		t.Error(err)
	}
	if err := ix.RenderSubjectIndex(&buf, RenderOptions{Format: Text}); err != nil {
		t.Error(err)
	}
	return buf.String()
}

func TestFrontMatterMemoOncePerRoot(t *testing.T) {
	// The second render of a root reuses the first one's title order and
	// subject groups: the same slices, and none of the collation keys a
	// sort builds, at least one allocation per title.
	const n = 2000
	works := publishCorpus(n)
	ix := frontMatterIndex(t, works)
	r := ix.root.Load()
	first := renderTitlesSubjects(t, ix)
	if titles, again := r.titles(ix.coll), r.titles(ix.coll); len(titles) != n || &titles[0] != &again[0] {
		t.Fatalf("title order of %d works rebuilt or sized %d", n, len(titles))
	}
	if groups, again := r.subjects(ix.coll), r.subjects(ix.coll); &groups[0] != &again[0] {
		t.Fatal("subject groups rebuilt for the same root")
	}
	if second := renderTitlesSubjects(t, ix); second != first {
		t.Fatal("second render of an unchanged root differs from the first")
	}
	view := ix.engine().AllWorksView()
	var buf bytes.Buffer
	sorted := testing.AllocsPerRun(3, func() {
		buf.Reset()
		render.TitleIndex(&buf, view, ix.coll, RenderOptions{Format: Text})
		render.SubjectIndex(&buf, view, ix.coll, RenderOptions{Format: Text})
	})
	memo := testing.AllocsPerRun(3, func() { renderTitlesSubjects(t, ix) })
	if memo > sorted-n {
		t.Errorf("render from the memo: %v allocations, sorting first %v; want at most %v", memo, sorted, sorted-n)
	}
	t.Logf("%d works: %.0f allocations sorting first, %.0f from the memo", n, sorted, memo)
}

func TestFrontMatterMemoAfterWrite(t *testing.T) {
	// A write publishes a root with an empty memo: the next render holds
	// the new work and equals a fresh index's render of the same works.
	works := publishCorpus(500)
	ix := frontMatterIndex(t, works[:499])
	before := renderTitlesSubjects(t, ix)
	w := *works[499]
	w.ID = 0
	if _, err := ix.Add(w); err != nil {
		t.Fatal(err)
	}
	after := renderTitlesSubjects(t, ix)
	if after == before || !strings.Contains(after, w.Citation.String()) {
		t.Fatal("render after a write lacks the new work")
	}
	if fresh := renderTitlesSubjects(t, frontMatterIndex(t, works)); after != fresh {
		t.Error("render after a write differs from a fresh index over the same works")
	}
}

func TestFrontMatterMemoConcurrentWrites(t *testing.T) {
	// Readers render titles and subjects while a writer commits one work
	// at a time: every index is the render of the first k works for some
	// k, however the memo of each root was filled.
	const base, writes = 200, 12
	works := publishCorpus(base + writes)
	want := map[string]map[string]int{"title": {}, "subject": {}}
	render := func(ix *Index, name string) string {
		var buf bytes.Buffer
		fn := ix.RenderTitleIndex
		if name == "subject" {
			fn = ix.RenderSubjectIndex
		}
		if err := fn(&buf, RenderOptions{Format: Text}); err != nil {
			t.Error(err)
		}
		return buf.String()
	}
	for k := 0; k <= writes; k++ {
		prefix := frontMatterIndex(t, works[:base+k])
		for name := range want {
			want[name][render(prefix, name)] = k
		}
	}
	ix := frontMatterIndex(t, works[:base])
	var done atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		for name := range want {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					if _, ok := want[name][render(ix, name)]; !ok {
						t.Errorf("a concurrent %s index matches no prefix of the works", name)
						return
					}
				}
			}()
		}
	}
	for _, w := range works[base:] {
		w := *w
		w.ID = 0
		if _, err := ix.Add(w); err != nil {
			t.Error(err)
		}
	}
	done.Store(true)
	wg.Wait()
	for name := range want {
		if k, ok := want[name][render(ix, name)]; !ok || k != writes {
			t.Errorf("final %s index is of %d works past the base (found %v), want %d", name, k, ok, writes)
		}
	}
}

func TestRenderIndexesCtxCanceled(t *testing.T) {
	// A canceled context stops either index with ctx.Err() before it
	// writes, or sorts, anything.
	ix := frontMatterIndex(t, publishCorpus(100))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, render := range map[string]func(context.Context, io.Writer, RenderOptions) error{
		"title": ix.RenderTitleIndexCtx, "subject": ix.RenderSubjectIndexCtx,
	} {
		var buf bytes.Buffer
		if err := render(ctx, &buf, RenderOptions{Format: Text}); err != context.Canceled || buf.Len() != 0 {
			t.Errorf("%s index under a canceled context: err %v and %d bytes, want context.Canceled and none", name, err, buf.Len())
		}
	}
	if r := ix.root.Load(); r.titleOrder != nil || r.subjectGroups != nil {
		t.Error("a canceled render filled the memo")
	}
}
