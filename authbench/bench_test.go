package main

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"testing"
	"time"

	authorindex "repro"
	"repro/internal/httpapi"
	"repro/internal/model"
	"repro/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestTailOfKeepsTenBeyond(t *testing.T) {
	tl := tailOf(seq(100), 10)
	if tl.Value != 90 || tl.Beyond != 10 || tl.N != 100 || tl.Pct != 90 {
		t.Fatalf("tail of 1..100 = %+v, want p90 = 90 with 10 beyond", tl)
	}
	tl = tailOf(seq(2250), 10)
	if tl.Value != 2240 || tl.Beyond != 10 {
		t.Fatalf("tail of 1..2250 = %+v, want 2240 with 10 beyond", tl)
	}
	// Too few samples for ten beyond any rank above the median: the
	// median rank is reported, with the count beyond it.
	tl = tailOf(seq(15), 10)
	if tl.Value != 8 || tl.Beyond != 7 {
		t.Fatalf("tail of 1..15 = %+v, want the median 8 with 7 beyond", tl)
	}
	if tl := tailOf(nil, 10); tl.N != 0 {
		t.Fatalf("tail of nothing = %+v", tl)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25, 9, 2, 7, 3.5}, [3]float64{1.8125, 4.5, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if sp := spread(seq(10)); math.Abs(sp-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", sp)
	}
}

func TestOpenLoopTimesChargeQueueingToLatency(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Worker idle before the op was due: it waits, then sends 1 ms late.
	lat, lag := openLoopTimes(at(10), at(4), at(11), at(13))
	if lat != 3*time.Millisecond || lag != time.Millisecond {
		t.Errorf("idle worker: latency %v lag %v, want 3ms and 1ms", lat, lag)
	}
	// Worker busy until after the op was due: the backlog is the
	// server's, so it counts in latency and not in the sender's lag.
	lat, lag = openLoopTimes(at(10), at(50), at(50), at(52))
	if lat != 42*time.Millisecond || lag != 0 {
		t.Errorf("backlogged worker: latency %v lag %v, want 42ms and 0", lat, lag)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 200, 3)
	for i := 0; i < 3; i++ {
		got, due, ok := s.claim()
		if !ok || got != i || !due.Equal(start.Add(time.Duration(i)*5*time.Millisecond)) {
			t.Fatalf("claim %d = %d %v %v", i, got, due, ok)
		}
	}
	if _, _, ok := s.claim(); ok {
		t.Fatal("claimed past the end of the schedule")
	}
}

func TestRunOpenLoopSendsEveryOpOnce(t *testing.T) {
	seen := make([]int, 50)
	samples := runOpenLoop(2000, len(seen), 2, func(i int) bool { seen[i]++; return true })
	for i, n := range seen {
		if n != 1 || !samples[i].OK {
			t.Fatalf("op %d sent %d times, sample %+v", i, n, samples[i])
		}
	}
}

func TestWindowedP50IgnoresAStallInAFewWindows(t *testing.T) {
	// 15 s at 100 ops/s, 1 ms each, except 4 s where everything took 9 ms.
	var samples []sample
	for i := 0; i < 1500; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		lat := time.Millisecond
		if at >= 5*time.Second && at < 9*time.Second {
			lat = 9 * time.Millisecond
		}
		samples = append(samples, sample{At: at, Latency: lat, OK: true})
	}
	if got := len(windows(samples)); got != maxWindows {
		t.Fatalf("%d windows, want %d", got, maxWindows)
	}
	if got := windowedP50(samples); got != 1 {
		t.Fatalf("windowed p50 %v ms, want 1", got)
	}
	// A sample median would have moved: 27% of the samples are slow.
	var lat []float64
	for _, s := range samples {
		lat = append(lat, ms(s.Latency))
	}
	if sortedCopy(lat)[len(lat)*3/4] != 9 {
		t.Fatal("stall too small to test anything")
	}
}

func TestMixP50WeighsEachKindsMedian(t *testing.T) {
	// Half the ops take 0.1 ms, half 2 ms, and one scrape takes 500 ms.
	// The median of all of them would be the gap between the two; the
	// mix-weighted median is their average, and the scrape is left out.
	var samples []sample
	var kinds []opKind
	for i := 0; i < 400; i++ {
		k, lat := opGet, 100*time.Microsecond
		if i%2 == 1 {
			k, lat = opSearch, 2*time.Millisecond
		}
		samples = append(samples, sample{At: time.Duration(i) * 10 * time.Millisecond, Latency: lat})
		kinds = append(kinds, k)
	}
	samples = append(samples, sample{At: 4 * time.Second, Latency: 500 * time.Millisecond})
	kinds = append(kinds, opScrape)
	if got := mixP50(samples, kinds); math.Abs(got-1.05) > 1e-9 {
		t.Fatalf("mix p50 %v ms, want 1.05", got)
	}
	if got := mixP50(samples[:1], nil); got != 0.1 {
		t.Fatalf("one kind: %v ms, want 0.1", got)
	}
}

func TestWindowedRateIsLittlesLaw(t *testing.T) {
	// One client, 64 works per op, back to back at 40 ms each: 1600/s.
	var samples []sample
	var units []float64
	for i := 0; i < 200; i++ {
		samples = append(samples, sample{At: time.Duration(i) * 40 * time.Millisecond, Latency: 40 * time.Millisecond, OK: true})
		units = append(units, 64)
	}
	if got := windowedRate(samples, units, 1); math.Abs(got-1600) > 1e-6 {
		t.Fatalf("rate %v, want 1600", got)
	}
	// Two clients each waiting 80 ms for the same throughput.
	for i := range samples {
		samples[i].Latency = 80 * time.Millisecond
	}
	if got := windowedRate(samples, units, 2); math.Abs(got-1600) > 1e-6 {
		t.Fatalf("two clients: rate %v, want 1600", got)
	}
	// Few operations make one window, not windows of one op.
	if got := len(windows(samples[:10])); got != 1 {
		t.Fatalf("10 ops in %d windows, want 1", got)
	}
}

func TestSleepUntilWakesOnTime(t *testing.T) {
	var late []time.Duration
	for i := 0; i < 20; i++ {
		due := time.Now().Add(3 * time.Millisecond)
		sleepUntil(due)
		late = append(late, time.Since(due))
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if m := late[len(late)/2]; m < 0 || m > 200*time.Microsecond {
		t.Fatalf("median wake-up %v after the deadline, want within 200µs", m)
	}
}

// tinyEnv is an in-memory index over a small generated corpus, served
// through the real handler.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	e := &env{w: workload{Name: "tiny", Stored: 400, Stream: 200, Shards: 1}, seed: 7,
		coll: authorindex.DefaultCollation()}
	e.corpus = genCorpus(e.seed, e.w.Stored, e.w.Stream)
	e.keys = newKeys(e.corpus.Stored, e.coll)
	ix, err := authorindex.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	batch := make([]authorindex.Work, len(e.corpus.Stored))
	for i, w := range e.corpus.Stored {
		batch[i] = *w
	}
	if _, err := ix.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	e.ix = ix
	e.handler = httpapi.New(ix, httpapi.Config{Registry: obs.NewRegistry()}).Handler()
	return e
}

func TestOracleAcceptsTheRealIndex(t *testing.T) {
	e := tinyEnv(t)
	p := newPlanner(e.seed, e.keys, e.corpus.Stream)
	plan, err := p.openPlan(300, 0.2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[opKind]int{}
	for _, o := range plan {
		kinds[o.Kind]++
		if _, err := checkResponse(o, e.serve(o), e.coll); err != nil {
			t.Fatal(err)
		}
	}
	for k := opKind(0); k < numOpKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("plan of 300 has no %s", k)
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	e := tinyEnv(t)
	p := newPlanner(e.seed, e.keys, nil)
	first := map[opKind]*op{}
	for len(first) < len(readKinds) {
		o := p.read()
		if first[o.Kind] == nil {
			first[o.Kind] = o
		}
	}
	ok := func(o *op) response { return e.serve(o) }
	bad := []struct {
		name string
		o    *op
		body func(r response) []byte
	}{
		{"get another work", first[opGet], func(response) []byte {
			return e.serve(&op{Method: "GET", Path: "/works/1"}).Body
		}},
		{"search hit without the term", first[opSearch], func(r response) []byte {
			var ws []httpapi.Work
			json.Unmarshal(r.Body, &ws)
			ws[0].Title = "Nothing Here"
			b, _ := json.Marshal(ws)
			return b
		}},
		{"authors out of order", first[opAuthors], func(r response) []byte {
			var es []httpapi.Entry
			json.Unmarshal(r.Body, &es)
			es = append(es, es[0])
			b, _ := json.Marshal(es)
			return b
		}},
		{"year out of range", first[opYears], func(response) []byte {
			b, _ := json.Marshal([]httpapi.Work{{ID: 1, Title: "T", Citation: "70:1 (1800)", Authors: []string{"Doe, J."}}})
			return b
		}},
		{"rank increasing", first[opRank], func(r response) []byte {
			var ms []authorindex.AuthorMetrics
			json.Unmarshal(r.Body, &ms)
			ms[0], ms[len(ms)-1] = ms[len(ms)-1], ms[0]
			b, _ := json.Marshal(ms)
			return b
		}},
		{"no subjects", first[opSubjects], func(response) []byte { return []byte("[]") }},
	}
	for _, c := range bad {
		r := ok(c.o)
		if _, err := checkResponse(c.o, r, e.coll); err != nil {
			t.Fatalf("%s: the real answer failed: %v", c.name, err)
		}
		r.Body = c.body(r)
		if _, err := checkResponse(c.o, r, e.coll); err == nil {
			t.Errorf("%s: oracle accepted a wrong answer", c.name)
		}
	}
	r := ok(first[opGet])
	r.Status = http.StatusInternalServerError
	if _, err := checkResponse(first[opGet], r, e.coll); err == nil {
		t.Error("oracle accepted a 500")
	}
}

func TestAcknowledgedWritesReadBackAfterReopen(t *testing.T) {
	w := workload{Name: "tiny-ingest", Stored: 300, Stream: 64 * 4000, Shards: 2, CompactEvery: 256,
		Clients: 2, Batch: 64}
	e, err := prepare(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.open(); err != nil {
		t.Fatal(err)
	}
	res, err := e.run(200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || len(res.Failures) > 0 {
		t.Fatalf("committed %d, failures %v", res.Committed, res.Failures)
	}
	if _, err := e.finish(res); err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Samples {
		if !s.OK {
			t.Fatalf("op %d lost after reopen: %v", i, res.Failures)
		}
	}
	// The durability oracle does notice a work that is not there.
	ix, err := authorindex.Open(e.runDir, &e.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ghost := map[model.WorkID]*model.Work{1 << 40: e.corpus.Stream[0]}
	if lost := lostOnReopen(ix, ghost); len(lost) != 1 {
		t.Fatalf("missing work not reported: %v", lost)
	}
}

func TestPublishArtifactsHashIdenticallyPerSeed(t *testing.T) {
	w := workload{Name: "tiny-publish", Stored: 300, Shards: 1, Clients: 1, Publish: true}
	hash := func(dir string) string {
		e, err := prepare(w, 5, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.open(); err != nil {
			t.Fatal(err)
		}
		res, err := e.run(300*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) < 2 || len(res.Failures) > 0 {
			t.Fatalf("%d builds, failures %v", len(res.Samples), res.Failures)
		}
		return res.Hash
	}
	if a, b := hash(t.TempDir()), hash(t.TempDir()); a != b || a == "" {
		t.Fatalf("same seed, different artifacts: %s vs %s", a, b)
	}
}

func TestDecodeBatchParsesEveryField(t *testing.T) {
	if err := decodeBatch([]byte(`[{"title":"T","kind":"article","citation":"90:1 (1988)","authors":["Zebra, Xavier Q."]}]`)); err != nil {
		t.Fatal(err)
	}
	if err := decodeBatch([]byte(`[{"title":"T","citation":"not a citation","authors":["Zebra, X."]}]`)); err == nil {
		t.Fatal("bad citation accepted")
	}
}
