package obs

import (
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", "route", "/a")
	b := r.Counter("x_total", "help", "route", "/a")
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	c := r.Counter("x_total", "help", "route", "/b")
	if a == c {
		t.Error("distinct labels shared a counter")
	}
	h1 := r.Histogram("y_seconds", "help")
	h2 := r.Histogram("y_seconds", "help")
	if h1 != h2 {
		t.Error("same histogram name returned distinct histograms")
	}
}

// TestRegistryAddHistogram: an owner's histogram filed on two
// registries is the one both expose, and filing another under the same
// series replaces it.
func TestRegistryAddHistogram(t *testing.T) {
	var own, next Histogram
	a, b := NewRegistry(), NewRegistry()
	a.AddHistogram("z_seconds", "help", &own, "op", "get")
	b.AddHistogram("z_seconds", "help", &own, "op", "get")
	own.ObserveNs(7)
	for _, r := range []*Registry{a, b} {
		if h := r.Histogram("z_seconds", "", "op", "get"); h != &own || h.Count() != 1 {
			t.Errorf("registry holds %p with %d samples, want the owner's %p with 1", h, h.Count(), &own)
		}
	}
	a.AddHistogram("z_seconds", "help", &next, "op", "get")
	if h := a.Histogram("z_seconds", "", "op", "get"); h != &next {
		t.Error("a second AddHistogram did not replace the series' histogram")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m_total", "help")
}

func TestRegistryInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "0leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "help")
		}()
	}
	// Odd label count panics too.
	defer func() {
		if recover() == nil {
			t.Error("odd label count did not panic")
		}
	}()
	r.Counter("fine_total", "help", "only_key")
}

// TestExpositionGolden pins the exact Prometheus text rendering:
// deterministic family and series order, HELP/TYPE comments, label
// escaping, cumulative histogram buckets in seconds with +Inf, _sum
// and _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("authdex_requests_total", "Requests served.", "route", "GET /search", "code", "200").Add(5)
	r.Counter("authdex_requests_total", "Requests served.", "route", "GET /search", "code", "404").Inc()
	r.Gauge("authdex_inflight", "In-flight requests.").Set(2)
	r.GaugeFunc("authdex_works", "Stored works.", func() float64 { return 42 })
	r.Counter("authdex_odd_label_total", "Escaping check.", "q", `quo"te\back`+"\nline").Inc()

	h := r.Histogram("authdex_op_seconds", "Op latency.", "op", "search")
	// 100ns files into exact bucket... no: 100 > 15, bucket upper is
	// deterministic; three spread-out values pin three bucket lines.
	h.ObserveNs(10)      // exact bucket, upper 10ns = 1e-08s
	h.ObserveNs(1000)    // bucket [960, 1023] → le 1.023e-06
	h.ObserveNs(1000000) // bucket [983040, 1048575] → le 0.001048575

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP authdex_inflight In-flight requests.
# TYPE authdex_inflight gauge
authdex_inflight 2
# HELP authdex_odd_label_total Escaping check.
# TYPE authdex_odd_label_total counter
authdex_odd_label_total{q="quo\"te\\back\nline"} 1
# HELP authdex_op_seconds Op latency.
# TYPE authdex_op_seconds histogram
authdex_op_seconds_bucket{op="search",le="1e-08"} 1
authdex_op_seconds_bucket{op="search",le="1.023e-06"} 2
authdex_op_seconds_bucket{op="search",le="0.001048575"} 3
authdex_op_seconds_bucket{op="search",le="+Inf"} 3
authdex_op_seconds_sum{op="search"} 0.00100101
authdex_op_seconds_count{op="search"} 3
# HELP authdex_requests_total Requests served.
# TYPE authdex_requests_total counter
authdex_requests_total{route="GET /search",code="200"} 5
authdex_requests_total{route="GET /search",code="404"} 1
# HELP authdex_works Stored works.
# TYPE authdex_works gauge
authdex_works 42
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSeriesCount(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "")
	r.Gauge("b", "")
	h := r.Histogram("c_seconds", "")
	h.ObserveNs(5)
	h.ObserveNs(5000)
	// counter + gauge + histogram (2 non-empty buckets + Inf/_sum/_count).
	if got := r.SeriesCount(); got != 2+2+3 {
		t.Errorf("SeriesCount = %d, want 7", got)
	}
}

func TestRegisterProcess(t *testing.T) {
	r := NewRegistry()
	RegisterProcess(r)
	RegisterProcess(r) // idempotent: callbacks replaced, no panic
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"authdex_go_goroutines", "authdex_go_heap_inuse_bytes", "authdex_go_heap_objects", "authdex_go_gc_cycles_total", "authdex_process_uptime_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("process exposition lacks %s:\n%s", want, out)
		}
	}
}
