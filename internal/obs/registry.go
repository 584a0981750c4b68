package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Default is the process-wide registry every layer instruments into;
// `authdex serve` exposes it at GET /debug/metrics.
var Default = NewRegistry()

// metricKind discriminates what a series holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) instrument inside a family.
type series struct {
	labels  []string // alternating key, value
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // counterFunc / gaugeFunc callback
	hist    *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	header string // "# HELP" and "# TYPE" lines, built at registration
	kind   metricKind
	series map[string]*series // keyed by label signature
}

// Registry is a concurrency-safe collection of metric families. The
// getters are get-or-create: asking twice for the same (name, labels)
// returns the same instrument, so packages can declare metrics
// independently and still share series. Asking for an existing name
// with a different metric type panics — that is a programming error.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	// beforeScrape, when set, runs at the start of every exposition.
	beforeScrape func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter registered under name and labels
// (alternating key, value), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.getOrCreate(kindCounter, name, help, labels, nil, nil).counter
}

// Gauge returns the gauge registered under name and labels, creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.getOrCreate(kindGauge, name, help, labels, nil, nil).gauge
}

// CounterFunc registers a callback sampled at exposition time as a
// counter series — how existing monotonic counters (WAL syncs, queries
// served) are promoted into metrics without restructuring their owners.
// Re-registering the same (name, labels) replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.getOrCreate(kindCounterFunc, name, help, labels, fn, nil)
}

// GaugeFunc registers a callback sampled at exposition time as a gauge
// series. Re-registering the same (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.getOrCreate(kindGaugeFunc, name, help, labels, fn, nil)
}

// BeforeScrape sets fn to run at the start of every WritePrometheus,
// before any callback series is sampled, so callbacks can share one
// reading per scrape. A later call replaces fn.
func (r *Registry) BeforeScrape(fn func()) {
	r.mu.Lock()
	r.beforeScrape = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.getOrCreate(kindHistogram, name, help, labels, nil, nil).hist
}

// AddHistogram files h, a histogram its owner keeps, under name and
// labels, replacing the series' histogram if it exists, so one owner
// can expose the same histogram on any registry.
func (r *Registry) AddHistogram(name, help string, h *Histogram, labels ...string) {
	r.getOrCreate(kindHistogram, name, help, labels, nil, h)
}

// getOrCreate returns a copy of the series under name and labels,
// creating it on first use. fn replaces its callback, a non-nil h its
// histogram.
func (r *Registry) getOrCreate(kind metricKind, name, help string, labels []string, fn func() float64, h *Histogram) series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q given %d label strings, want key/value pairs", name, len(labels)))
	}
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, labels[i]))
		}
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, header: familyHeader(name, help, kind), kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: append([]string(nil), labels...)}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			if h == nil {
				h = &Histogram{}
			}
		}
		f.series[sig] = s
	}
	s.fn = fn // nil unless kind is a callback kind
	if h != nil {
		s.hist = h
	}
	return *s
}

// SeriesCount returns the number of sample series the registry would
// expose: one per counter/gauge series, and per histogram its non-empty
// buckets plus the +Inf bucket, _sum and _count lines.
func (r *Registry) SeriesCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, f := range r.families {
		for _, s := range f.series {
			if f.kind == kindHistogram {
				snap := s.hist.Snapshot()
				n += len(snap.buckets) + 3
			} else {
				n++
			}
		}
	}
	return n
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families and series in deterministic sorted
// order. Histograms emit cumulative `le` buckets (only the non-empty
// ones, plus +Inf) with nanosecond bounds converted to seconds, and
// `_sum` in seconds — the convention for *_seconds metrics.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	if r.beforeScrape != nil {
		r.beforeScrape()
	}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		b.WriteString(f.header)
		for _, sig := range sigs {
			s := f.series[sig]
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, "", s.labels, "", formatInt(s.counter.Value()))
			case kindGauge:
				writeSample(&b, f.name, "", s.labels, "", formatInt(s.gauge.Value()))
			case kindCounterFunc, kindGaugeFunc:
				v := 0.0
				if s.fn != nil {
					v = s.fn()
				}
				writeSample(&b, f.name, "", s.labels, "", formatFloat(v))
			case kindHistogram:
				snap := s.hist.Snapshot()
				snap.Cumulative(func(upperNs, cum int64) {
					writeSample(&b, f.name, "_bucket", s.labels,
						formatFloat(float64(upperNs)/1e9), formatInt(cum))
				})
				writeSample(&b, f.name, "_bucket", s.labels, "+Inf", formatInt(snap.total))
				writeSample(&b, f.name, "_sum", s.labels, "", formatFloat(float64(snap.Sum)/1e9))
				writeSample(&b, f.name, "_count", s.labels, "", formatInt(snap.Count))
			}
		}
	}
	r.mu.RUnlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// familyHeader builds a family's "# HELP" and "# TYPE" lines once, so
// a scrape copies them rather than formatting them through fmt, whose
// pooled printer state makes allocation counts vary from run to run.
func familyHeader(name, help string, kind metricKind) string {
	h := "# TYPE " + name + " " + kind.String() + "\n"
	if help != "" {
		h = "# HELP " + name + " " + escapeHelp(help) + "\n" + h
	}
	return h
}

// writeSample emits one exposition line. le, when non-empty, is
// appended as the trailing `le` label (histogram buckets).
func writeSample(b *strings.Builder, name, suffix string, labels []string, le, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		b.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[i+1]))
			b.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelSignature builds the map key for a label set. Label order is
// part of the identity, which callers keep stable by construction.
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
		b.WriteByte(',')
	}
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
