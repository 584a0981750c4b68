package trace

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestDisabledPathIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatalf("StartSpan on bare context returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan on bare context returned a new context")
	}
	// All nil-receiver ops must be safe no-ops.
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	if c := sp.StartChild("child"); c != nil {
		t.Fatalf("nil span produced a child")
	}
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	var tr *Trace
	tr.Finish("fam")
	if err := tr.Check(); err != nil {
		t.Fatalf("nil trace Check: %v", err)
	}
	var tc *Tracer
	if ctx3, root := tc.StartRoot(ctx, "id", "op"); root != nil || ctx3 != ctx {
		t.Fatalf("nil tracer StartRoot not inert")
	}
	if s := tc.Snapshot(); s != nil {
		t.Fatalf("nil tracer snapshot = %v", s)
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		c, sp := StartSpan(ctx, "op")
		sp.SetInt("hits", 42)
		sp.End()
		_ = c
	}); n != 0 {
		t.Fatalf("disabled StartSpan allocates %v per run, want 0", n)
	}
	var h obs.Histogram
	if n := testing.AllocsPerRun(200, func() {
		c, tm := Time(ctx, "op", &h)
		tm.Span.SetInt("hits", 42)
		tm.End()
		_ = c
	}); n != 0 {
		t.Fatalf("untraced Time allocates %v per run, want 0", n)
	}
}

// TestTimerOneSample: a timed region records one histogram sample with
// or without a trace, and under a trace that sample is the span's
// duration, so the span tree and the histogram never disagree.
func TestTimerOneSample(t *testing.T) {
	var h obs.Histogram
	ctx, tm := Time(context.Background(), "op", &h)
	if tm.Span != nil || ctx != context.Background() {
		t.Fatal("untraced Time opened a span")
	}
	time.Sleep(time.Millisecond)
	tm.End()
	if s := h.Snapshot(); s.Count != 1 || s.Sum < int64(time.Millisecond) {
		t.Fatalf("untraced region: %d samples summing to %dns, want 1 of >= 1ms", s.Count, s.Sum)
	}

	var th obs.Histogram
	rctx, tr := NewTracer(Config{}).StartRoot(context.Background(), "", "root")
	ctx, tm = Time(rctx, "op", &th)
	if tm.Span == nil || FromContext(ctx) != tm.Span {
		t.Fatal("traced Time did not open the region's span in the returned context")
	}
	time.Sleep(time.Millisecond)
	tm.End()
	tr.Finish("root")
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if s := th.Snapshot(); s.Count != 1 || s.Sum != int64(tm.Span.Duration()) {
		t.Fatalf("traced region: %d samples summing to %dns, want 1 of the span's %dns",
			s.Count, s.Sum, tm.Span.Duration())
	}
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tc := NewTracer(Config{RingSize: 4})
	ctx, tr := tc.StartRoot(context.Background(), "req-1", "GET /works")
	if tr == nil {
		t.Fatal("no trace")
	}
	ctx, facade := StartSpan(ctx, "facade.search")
	_, scan := StartSpan(ctx, "engine.title_scan")
	scan.SetInt("hits", 7)
	scan.End()
	facade.End()
	tr.Finish("GET /works")
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}

	snap := tc.Snapshot()
	if len(snap) != 1 || snap[0].Family != "GET /works" {
		t.Fatalf("snapshot = %+v", snap)
	}
	fs := snap[0]
	if len(fs.Recent) != 1 || len(fs.Slowest) != 1 {
		t.Fatalf("rings: recent=%d slowest=%d", len(fs.Recent), len(fs.Slowest))
	}
	td := fs.Recent[0]
	if td.ID != "req-1" || td.Root.Name != "GET /works" {
		t.Fatalf("trace data = %+v", td)
	}
	if len(td.Root.Children) != 1 || td.Root.Children[0].Name != "facade.search" {
		t.Fatalf("root children = %+v", td.Root.Children)
	}
	inner := td.Root.Children[0].Children
	if len(inner) != 1 || inner[0].Name != "engine.title_scan" {
		t.Fatalf("facade children = %+v", inner)
	}
	if len(inner[0].Attrs) != 1 || inner[0].Attrs[0] != (Attr{"hits", "7"}) {
		t.Fatalf("scan attrs = %+v", inner[0].Attrs)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestRecentRingEvictsOldest(t *testing.T) {
	tc := NewTracer(Config{RingSize: 2})
	for i := 0; i < 5; i++ {
		_, tr := tc.StartRoot(context.Background(), "", "op")
		tr.Finish("fam")
	}
	snap := tc.Snapshot()
	if len(snap) != 1 || len(snap[0].Recent) != 2 {
		t.Fatalf("recent = %+v", snap)
	}
}

func TestSlowestRingKeepsSlowest(t *testing.T) {
	tc := NewTracer(Config{RingSize: 2})
	mk := func(d time.Duration) {
		_, tr := tc.StartRoot(context.Background(), "", "op")
		tr.root.start = tr.root.start.Add(-d) // backdate so Finish records ~d
		tr.Finish("fam")
	}
	mk(time.Millisecond)
	mk(50 * time.Millisecond)
	mk(200 * time.Millisecond)
	mk(2 * time.Millisecond) // faster than everything retained: dropped
	snap := tc.Snapshot()
	sl := snap[0].Slowest
	if len(sl) != 2 {
		t.Fatalf("slowest = %+v", sl)
	}
	if sl[0].DurNS < sl[1].DurNS {
		t.Fatalf("slowest not sorted desc: %v, %v", sl[0].DurNS, sl[1].DurNS)
	}
	if sl[1].DurNS < int64(40*time.Millisecond) {
		t.Fatalf("fast trace displaced a slow one: %v", sl[1].DurNS)
	}
}

func TestSampling(t *testing.T) {
	tc := NewTracer(Config{RingSize: 64, SampleEvery: 4})
	for i := 0; i < 16; i++ {
		_, tr := tc.StartRoot(context.Background(), "", "op")
		tr.Finish("fam")
	}
	snap := tc.Snapshot()
	if got := len(snap[0].Recent); got != 4 {
		t.Fatalf("sampled recent = %d, want 4 (1 in 4 of 16)", got)
	}
}

func TestSlowlogEmission(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tc := NewTracer(Config{Slowlog: time.Nanosecond, SampleEvery: 1000, Logger: logger})
	ctx, tr := tc.StartRoot(context.Background(), "req-9", "POST /works")
	_, child := StartSpan(ctx, "wal.fsync")
	time.Sleep(time.Millisecond)
	child.End()
	tr.Finish("POST /works")
	out := buf.String()
	if !strings.Contains(out, "slow trace") || !strings.Contains(out, "req-9") {
		t.Fatalf("slowlog line missing: %q", out)
	}
	if !strings.Contains(out, "wal.fsync") {
		t.Fatalf("slowlog span tree missing child: %q", out)
	}
	// Slow traces bypass sampling and are always retained.
	if snap := tc.Snapshot(); len(snap) != 1 || len(snap[0].Recent) != 1 {
		t.Fatalf("slow trace not retained: %+v", snap)
	}
}

func TestCheckCatchesMalformedTrees(t *testing.T) {
	tc := NewTracer(Config{})
	ctx, tr := tc.StartRoot(context.Background(), "", "root")
	_, orphan := StartSpan(ctx, "never-ended")
	_ = orphan
	tr.Finish("fam")
	if err := tr.Check(); err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Fatalf("orphan not caught: %v", err)
	}

	_, tr2 := tc.StartRoot(context.Background(), "", "root")
	tr2.Finish("fam")
	tr2.root.ends.Add(1) // simulate a double End
	if err := tr2.Check(); err == nil || !strings.Contains(err.Error(), "ended 2 times") {
		t.Fatalf("double end not caught: %v", err)
	}
}

func TestConcurrentChildrenRaceFree(t *testing.T) {
	tc := NewTracer(Config{})
	ctx, tr := tc.StartRoot(context.Background(), "", "parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wctx, sp := StartSpan(ctx, "worker")
			sp.SetInt("i", int64(i))
			_, inner := StartSpan(wctx, "inner")
			inner.End()
			sp.End()
		}(i)
	}
	wg.Wait()
	tr.Finish("fam")
	if err := tr.Check(); err != nil {
		t.Fatalf("Check after concurrent children: %v", err)
	}
	td := tr.Data()
	if len(td.Root.Children) != 8 {
		t.Fatalf("children = %d, want 8", len(td.Root.Children))
	}
	var b strings.Builder
	root := td.Root
	root.WriteText(&b, 0)
	if got := strings.Count(b.String(), "inner"); got != 8 {
		t.Fatalf("text tree inner count = %d:\n%s", got, b.String())
	}
}

func TestCompactTree(t *testing.T) {
	tc := NewTracer(Config{})
	ctx, tr := tc.StartRoot(context.Background(), "", "root")
	_, a := StartSpan(ctx, "a")
	a.SetAttr("k", "v")
	a.End()
	tr.Finish("fam")
	s := tr.CompactTree()
	if !strings.HasPrefix(s, "root(") || !strings.Contains(s, "{a(") || !strings.Contains(s, "k=v") {
		t.Fatalf("compact tree = %q", s)
	}
}
