// Package obs is the zero-dependency telemetry layer under the
// author-index engine: atomic counters and gauges, lock-cheap
// fixed-bucket latency histograms with log-scaled buckets and quantile
// extraction, a process-wide default registry, and Prometheus
// text-format exposition.
//
// Every instrument is safe for concurrent use and built from atomics on
// the hot path — recording a histogram observation costs a handful of
// uncontended atomic adds (see BenchmarkHistogramObserve), so layers as
// hot as the WAL fsync path and the facade read path can record every
// operation unconditionally.
//
// Instruments are created through a Registry, which deduplicates by
// (name, labels) so independently initialized packages can share
// series, and renders everything it holds in Prometheus text format:
//
//	reqs := obs.Default.Counter("authdex_http_requests_total",
//		"HTTP requests served.", "route", "GET /search", "code", "200")
//	reqs.Inc()
//	var lat obs.Histogram // kept by its owner, filed where it is told
//	reg.AddHistogram("authdex_op_duration_seconds",
//		"Latency of public index operations.", &lat, "op", "search")
//	defer lat.Since(time.Now())
package obs

import "sync/atomic"

// Counter is a monotonically increasing int64. The zero value is ready
// to use, but counters almost always come from Registry.Counter so they
// are exposed.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n is ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value that can go up and down (queue
// depths, in-flight requests). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
