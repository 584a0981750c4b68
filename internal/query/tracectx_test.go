package query

import (
	"context"
	"testing"

	"repro/internal/collate"
	"repro/internal/trace"
)

func treeNames(d *trace.SpanData, into map[string]int) {
	into[d.Name]++
	for i := range d.Children {
		treeNames(&d.Children[i], into)
	}
}

// TestLoadAllCtxSpanTree: the bulk load records one span per parallel
// build phase plus the serial validate and sort passes and the tracker
// rebuild beside them, the tree stays well-formed even though six
// goroutines attach spans concurrently, and the whole thing runs clean
// under -race.
func TestLoadAllCtxSpanTree(t *testing.T) {
	works := loadAllCorpus(t, 400)
	e := New(collate.Default())
	tracer := trace.NewTracer(trace.Config{})
	ctx, tr := tracer.StartRoot(context.Background(), "", "test load")
	if err := e.LoadAllCtx(ctx, works); err != nil {
		t.Fatal(err)
	}
	tr.Finish("test load")
	if err := tr.Check(); err != nil {
		t.Fatalf("malformed trace: %v", err)
	}

	root := tr.Data().Root
	names := map[string]int{}
	treeNames(&root, names)
	for _, want := range []string{
		"engine.load_all",
		"load.validate",
		"load.sort_keys",
		"load.author_index",
		"load.inverted",
		"load.citation_trees",
		"load.subjects",
		"load.metrics",
	} {
		if names[want] != 1 {
			t.Errorf("span %q appears %d times, want 1 (tree: %v)", want, names[want], names)
		}
	}
}

// TestLoadAllCtxErrorEndsSpans: a rejected load (duplicate IDs) still
// leaves a well-formed tree — no orphaned validate span.
func TestLoadAllCtxErrorEndsSpans(t *testing.T) {
	works := loadAllCorpus(t, 50)
	works = append(works, works[0]) // duplicate ID: validate rejects
	e := New(collate.Default())
	tracer := trace.NewTracer(trace.Config{})
	ctx, tr := tracer.StartRoot(context.Background(), "", "test load reject")
	if err := e.LoadAllCtx(ctx, works); err == nil {
		t.Fatal("duplicate-ID corpus accepted")
	}
	tr.Finish("test load reject")
	if err := tr.Check(); err != nil {
		t.Fatalf("malformed trace after rejected load: %v", err)
	}
}
