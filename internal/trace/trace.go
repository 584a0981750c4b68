// Package trace is a stdlib-only, context-propagated span subsystem
// in the spirit of golang.org/x/net/trace. A root span is started per
// HTTP request (or CLI command) and carried through the layers via
// context.Context; each layer attaches child spans (lock wait vs hold,
// index scan, WAL encode vs fsync, render sections) so a single slow
// request explains itself.
//
// The design is always-on-cheap: when no span rides the context every
// operation is a nil-receiver no-op and StartSpan performs nothing but
// one ctx.Value lookup — zero allocations. Completed traces land in
// per-family lock-free rings (N most recent plus N slowest) served by
// GET /debug/traces, and traces over a configurable slowlog threshold
// are emitted as structured slog lines with their full span tree.
package trace

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Attr is one key/value annotation on a span (result counts, byte
// totals, query strings). Values are strings so the hot path never
// needs reflection.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one timed operation inside a trace. All methods are safe on
// a nil receiver so call sites never branch on whether tracing is
// enabled. Children may be attached concurrently (parallel index
// builds); the mutex guards only the slices, never the timing fields.
type Span struct {
	name  string
	start time.Time
	dur   atomic.Int64 // ns, set exactly once by End
	ends  atomic.Int32 // End effective only on the 1st call

	mu       sync.Mutex
	children []*Span
	attrs    []Attr

	// forced, on a root span, makes Finish treat the trace as slow
	// regardless of duration: retained in the rings and emitted on the
	// slowlog. The panic-recovery middleware sets it so every panicking
	// request leaves its span tree behind.
	forced atomic.Bool
}

// ForceSlowTrace marks the span's trace for unconditional slow-trace
// capture at Finish. Only meaningful on a root span; safe on nil.
func (s *Span) ForceSlowTrace() {
	if s == nil {
		return
	}
	s.forced.Store(true)
}

// StartChild creates and attaches a child span. Returns nil when the
// receiver is nil, so disabled-path callers pay nothing.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End records the span duration. Only the first call wins; doubled
// Ends (a defer racing an explicit call) are counted so tests can
// detect them via Check on the owning trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.ends.Add(1) != 1 {
		return
	}
	s.dur.Store(int64(time.Since(s.start)))
}

// Duration reports the recorded duration, 0 while the span is open.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.dur.Load())
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value (result counts,
// bytes written).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

type ctxKey struct{}

// FromContext returns the span carried by ctx, nil when tracing is
// not enabled for this call chain.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the span carried by ctx and returns a
// context carrying the child. When ctx carries no span this is the
// disabled path: it returns (ctx, nil) without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	return context.WithValue(ctx, ctxKey{}, c), c
}

// Timer times one region with one clock: End records one sample in the
// region's histogram, which under a trace is the duration of the
// region's span. A Timer is a value, so an untraced one allocates
// nothing.
type Timer struct {
	Span  *Span // the region's span; nil when untraced
	hist  *obs.Histogram
	start time.Time
}

// Time starts timing the region name into h, as a child span of the
// span ctx carries (returned in the context), if any.
func Time(ctx context.Context, name string, h *obs.Histogram) (context.Context, Timer) {
	ctx, sp := StartSpan(ctx, name)
	if sp != nil {
		return ctx, Timer{Span: sp, hist: h}
	}
	return ctx, Timer{hist: h, start: time.Now()}
}

// End ends the region's span and records its sample.
func (t Timer) End() {
	if t.Span == nil {
		t.hist.Since(t.start)
		return
	}
	t.Span.End()
	t.hist.Observe(t.Span.Duration())
}

// Trace owns a root span plus the identity that correlates it with
// the access log (the X-Request-ID) and the op family it is filed
// under once finished.
type Trace struct {
	ID     string
	Family string
	Start  time.Time

	root   *Span
	tracer *Tracer
}

// Root exposes the root span (for tests and for attaching attrs at
// the request layer).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Duration is the root span duration; 0 until Finish.
func (tr *Trace) Duration() time.Duration { return tr.Root().Duration() }

// Config tunes a Tracer. The zero value is usable: no slowlog
// emission, keep every trace, rings of DefaultRingSize.
type Config struct {
	// Slowlog is the threshold at or above which a finished trace is
	// always retained and logged with its span tree. 0 disables the
	// slowlog (rings still fill).
	Slowlog time.Duration
	// SampleEvery admits 1 in N sub-threshold traces to the recent
	// ring (slow traces are always admitted). <=1 keeps every trace.
	SampleEvery int
	// RingSize is the per-family capacity of each of the two rings
	// (recent, slowest). <=0 means DefaultRingSize.
	RingSize int
	// Logger receives slowlog lines. nil disables emission.
	Logger *slog.Logger
}

// DefaultRingSize is the per-family ring capacity when Config.RingSize
// is unset.
const DefaultRingSize = 16

// Tracer files finished traces into per-family rings. A nil *Tracer
// is valid and inert, so callers thread it unconditionally.
type Tracer struct {
	cfg      Config
	families sync.Map // string -> *family
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	return &Tracer{cfg: cfg}
}

// Slowlog reports the configured slow-trace threshold.
func (t *Tracer) Slowlog() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.Slowlog
}

// StartRoot opens a new trace whose root span is carried by the
// returned context. id is the correlation id (request id); it may be
// empty. On a nil tracer this is the disabled path: (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, id, name string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	root := &Span{name: name, start: time.Now()}
	tr := &Trace{ID: id, Start: root.start, root: root, tracer: t}
	return context.WithValue(ctx, ctxKey{}, root), tr
}

// Finish ends the root span, files the trace under family, and emits
// a slowlog line when the trace crossed the threshold. Safe on nil.
func (tr *Trace) Finish(family string) {
	if tr == nil {
		return
	}
	tr.root.End()
	tr.Family = family
	t := tr.tracer
	dur := tr.root.Duration()
	slow := tr.root.forced.Load() || (t.cfg.Slowlog > 0 && dur >= t.cfg.Slowlog)
	f := t.family(family)
	f.offerSlow(tr)
	if slow || f.sample(t.cfg.SampleEvery) {
		f.keepRecent(tr)
	}
	if slow && t.cfg.Logger != nil {
		t.cfg.Logger.Warn("slow trace",
			"trace_id", tr.ID,
			"family", family,
			"dur", dur,
			"threshold", t.cfg.Slowlog,
			"spans", tr.CompactTree(),
		)
	}
}

// family is the pair of lock-free rings one op family retains.
//
// recent is a classic sequence ring: slot seq%size holds the
// seq-th admitted trace. slowest is kept by find-min + CAS-replace
// with bounded retries — contention only ever drops one candidate
// that raced with a slower one, never corrupts a slot.
type family struct {
	name    string
	seq     atomic.Uint64 // admissions to recent
	ticks   atomic.Uint64 // all finishes, drives sampling
	recent  []atomic.Pointer[Trace]
	slowest []atomic.Pointer[Trace]
}

func (t *Tracer) family(name string) *family {
	if v, ok := t.families.Load(name); ok {
		return v.(*family)
	}
	f := &family{
		name:    name,
		recent:  make([]atomic.Pointer[Trace], t.cfg.RingSize),
		slowest: make([]atomic.Pointer[Trace], t.cfg.RingSize),
	}
	v, _ := t.families.LoadOrStore(name, f)
	return v.(*family)
}

func (f *family) sample(every int) bool {
	n := f.ticks.Add(1)
	return every <= 1 || n%uint64(every) == 1
}

func (f *family) keepRecent(tr *Trace) {
	slot := (f.seq.Add(1) - 1) % uint64(len(f.recent))
	f.recent[slot].Store(tr)
}

// offerSlow inserts tr into the slowest ring iff it is slower than
// the current minimum. Bounded retries keep the path lock-free; a
// lost race means a concurrently-inserted trace was slower, which is
// an acceptable outcome for a diagnostics ring.
func (f *family) offerSlow(tr *Trace) {
	dur := tr.Duration()
	for attempt := 0; attempt < 4; attempt++ {
		minIdx, minTr := -1, (*Trace)(nil)
		var minDur time.Duration
		for i := range f.slowest {
			cur := f.slowest[i].Load()
			if cur == nil {
				minIdx, minTr = i, nil
				minDur = 0
				break
			}
			if minIdx == -1 || cur.Duration() < minDur {
				minIdx, minTr, minDur = i, cur, cur.Duration()
			}
		}
		if minTr != nil && dur <= minDur {
			return // not slower than anything retained
		}
		if f.slowest[minIdx].CompareAndSwap(minTr, tr) {
			return
		}
	}
}

// SpanData is the JSON-friendly snapshot of one span. Offsets are
// relative to the trace root so the tree is self-describing.
type SpanData struct {
	Name     string     `json:"name"`
	OffsetNS int64      `json:"offset_ns"`
	DurNS    int64      `json:"dur_ns"`
	Attrs    []Attr     `json:"attrs,omitempty"`
	Children []SpanData `json:"children,omitempty"`
}

// TraceData is the JSON-friendly snapshot of one finished trace.
type TraceData struct {
	ID     string    `json:"id,omitempty"`
	Family string    `json:"family"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
	Root   SpanData  `json:"root"`
}

// FamilySnapshot is everything /debug/traces serves for one family.
type FamilySnapshot struct {
	Family  string      `json:"family"`
	Recent  []TraceData `json:"recent"`
	Slowest []TraceData `json:"slowest"`
}

// Data snapshots the trace into exportable form.
func (tr *Trace) Data() TraceData {
	return TraceData{
		ID:     tr.ID,
		Family: tr.Family,
		Start:  tr.Start,
		DurNS:  int64(tr.Duration()),
		Root:   tr.root.data(tr.Start),
	}
}

func (s *Span) data(base time.Time) SpanData {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	d := SpanData{
		Name:     s.name,
		OffsetNS: int64(s.start.Sub(base)),
		DurNS:    s.dur.Load(),
		Attrs:    attrs,
	}
	for _, c := range children {
		d.Children = append(d.Children, c.data(base))
	}
	return d
}

// Snapshot returns every family's retained traces, families sorted by
// name, recent traces newest-first, slowest slowest-first.
func (t *Tracer) Snapshot() []FamilySnapshot {
	if t == nil {
		return nil
	}
	var out []FamilySnapshot
	t.families.Range(func(k, v any) bool {
		f := v.(*family)
		fs := FamilySnapshot{Family: k.(string)}
		seq := f.seq.Load()
		n := uint64(len(f.recent))
		for i := uint64(0); i < n && i < seq; i++ {
			// newest-first: walk backwards from the last admitted slot.
			tr := f.recent[(seq-1-i)%n].Load()
			if tr != nil {
				fs.Recent = append(fs.Recent, tr.Data())
			}
		}
		for i := range f.slowest {
			if tr := f.slowest[i].Load(); tr != nil {
				fs.Slowest = append(fs.Slowest, tr.Data())
			}
		}
		sort.Slice(fs.Slowest, func(i, j int) bool { return fs.Slowest[i].DurNS > fs.Slowest[j].DurNS })
		out = append(out, fs)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// CompactTree renders the span tree as a single compact line for the
// slowlog: name(dur key=val){child(dur) child(dur)}.
func (tr *Trace) CompactTree() string {
	if tr == nil {
		return ""
	}
	var b strings.Builder
	tr.root.compact(&b)
	return b.String()
}

func (s *Span) compact(b *strings.Builder) {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	b.WriteString(s.name)
	b.WriteByte('(')
	b.WriteString(s.Duration().Round(time.Microsecond).String())
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Val)
	}
	b.WriteByte(')')
	if len(children) > 0 {
		b.WriteByte('{')
		for i, c := range children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.compact(b)
		}
		b.WriteByte('}')
	}
}

// WriteText renders d as an indented tree, durations in human units.
func (d *SpanData) WriteText(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%-9s %-9s %s",
		time.Duration(d.OffsetNS).Round(time.Microsecond),
		time.Duration(d.DurNS).Round(time.Microsecond),
		d.Name)
	for _, a := range d.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Val)
	}
	b.WriteByte('\n')
	for i := range d.Children {
		d.Children[i].WriteText(b, depth+1)
	}
}

// Check validates that the finished trace is well-formed: every span
// ended exactly once, and every child's window nests inside its
// parent's. Used by the -race propagation tests.
func (tr *Trace) Check() error {
	if tr == nil {
		return nil
	}
	return tr.root.check(nil)
}

func (s *Span) check(parent *Span) error {
	switch n := s.ends.Load(); {
	case n == 0:
		return fmt.Errorf("span %q never ended (orphaned)", s.name)
	case n > 1:
		return fmt.Errorf("span %q ended %d times", s.name, n)
	}
	if parent != nil {
		if s.start.Before(parent.start) {
			return fmt.Errorf("span %q starts before parent %q", s.name, parent.name)
		}
		pEnd := parent.start.Add(parent.Duration())
		if end := s.start.Add(s.Duration()); end.After(pEnd) {
			return fmt.Errorf("span %q (ends %v) outlives parent %q (ends %v)",
				s.name, end, parent.name, pEnd)
		}
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		if err := c.check(s); err != nil {
			return err
		}
	}
	return nil
}
