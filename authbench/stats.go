package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie above the reported tail
// percentile: a tail read from fewer samples is one outlier, not a tail.
const tailMinBeyond = 10

// median returns the middle of xs (the mean of the two middles for an
// even count), 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample that still has at least
// minBeyond samples above it.
type tail struct {
	Value  float64 // the sample at that rank
	Pct    float64 // percentile of Value: share of samples at or below it, in %
	Beyond int     // samples strictly above the rank
	N      int     // sample count
}

// tailOf picks the tail of xs: with n samples sorted ascending it reports
// the sample at index n-1-minBeyond, so exactly minBeyond samples lie
// beyond it. With too few samples it falls back to the median rank and
// reports how many lie beyond that.
func tailOf(xs []float64, minBeyond int) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	k := n - 1 - minBeyond
	if k < (n-1)/2 {
		k = (n - 1) / 2
	}
	return tail{Value: s[k], Pct: 100 * float64(k+1) / float64(n), Beyond: n - 1 - k, N: n}
}

// quartiles returns the first, second and third quartiles of xs with the
// exclusive method of Python's statistics.quantiles(xs, n=4), so the
// spread this benchmark reports matches the one its bounds are judged by.
// It needs at least two samples; with fewer it returns the lone value
// three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure a metric's bound is compared with.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentileOf returns the sample at quantile q (0..1) of xs by nearest
// rank.
func percentileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Window statistics. A run is cut into equal spans of time and a metric
// is the median of its per-window values, so a stall that covers less
// than half of the windows — a collection storm, or another tenant of a
// shared host taking the CPUs for a few seconds — moves it little, where
// it would move a median over every sample by the share of samples it
// slowed.
const (
	maxWindows   = 15 // one window per second of a 15-s run
	minWindowOps = 8  // fewer windows rather than windows of fewer ops
)

// windows groups the indexes of samples by the window their At falls in:
// min(maxWindows, n/minWindowOps) windows, at least one, spanning the run
// from its first At to its last. Empty windows are dropped.
func windows(samples []sample) [][]int {
	n := len(samples)
	if n == 0 {
		return nil
	}
	k := min(maxWindows, max(1, n/minWindowOps))
	lo, hi := samples[0].At, samples[0].At
	for _, s := range samples {
		lo, hi = min(lo, s.At), max(hi, s.At)
	}
	width := max((hi-lo+1)/time.Duration(k), 1)
	groups := make([][]int, k)
	for i, s := range samples {
		w := min(int((s.At-lo)/width), k-1)
		groups[w] = append(groups[w], i)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// windowedP50 is the median over windows of each window's median latency,
// in milliseconds.
func windowedP50(samples []sample) float64 {
	var per []float64
	for _, g := range windows(samples) {
		lat := make([]float64, len(g))
		for j, i := range g {
			lat[j] = ms(samples[i].Latency)
		}
		per = append(per, median(lat))
	}
	return median(per)
}

// mixP50 is the p50_ms of a run, in milliseconds: each operation kind's
// windowed median latency, weighted by the kind's share of the run's
// operations. kinds[i] is operation i's kind; nil means one kind.
//
// The plain median of all latencies is no steady measure of the read
// mix: gets, subjects and author pages, which answer in well under a
// millisecond, are exactly half of it, so the median fell in the gap
// between them and the millisecond-scale searches and year ranges, and a
// share that drifted by one point moved it by a millisecond. Each kind's
// latencies form one cluster, and their medians do not jump.
//
// GET /debug/metrics is left out: two scrapes a run give no median, and
// obs.scrape_ms reports what a scrape costs.
func mixP50(samples []sample, kinds []opKind) float64 {
	if kinds == nil {
		return windowedP50(samples)
	}
	var byKind [numOpKinds][]sample
	n := 0
	for i, s := range samples {
		if kinds[i] == opScrape {
			continue
		}
		byKind[kinds[i]] = append(byKind[kinds[i]], s)
		n++
	}
	var p50 float64
	for _, ks := range byKind {
		p50 += float64(len(ks)) / float64(n) * windowedP50(ks)
	}
	return p50
}

// windowedRate is a closed loop's throughput in units per second, the
// median over windows of Little's law: clients × units / summed latency,
// where units[i] is what operation i completed (works committed, builds
// made). Summed latency rather than the window's length keeps an
// operation that straddles a window edge from counting as all or nothing.
func windowedRate(samples []sample, units []float64, clients int) float64 {
	var per []float64
	for _, g := range windows(samples) {
		var done, busy float64
		for _, i := range g {
			done += units[i]
			busy += samples[i].Latency.Seconds()
		}
		if busy > 0 {
			per = append(per, float64(clients)*done/busy)
		}
	}
	return median(per)
}

// latenciesMS lists a run's latencies in milliseconds, in send order.
func latenciesMS(res *runResult) []float64 {
	xs := make([]float64, len(res.Samples))
	for i, s := range res.Samples {
		xs[i] = ms(s.Latency)
	}
	return xs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(1, len(xs))) }
