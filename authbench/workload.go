package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	authorindex "repro"
	"repro/internal/collate"
	"repro/internal/httpapi"
	"repro/internal/model"
	"repro/internal/obs"
)

// workload is one named traffic mix and the store it runs on.
type workload struct {
	Name   string
	Stored int // works in the store when the run starts
	Stream int // works generated past the store for writers to post
	Shards int
	// CompactEvery is the store's automatic compaction threshold, in
	// logged works; zero disables it.
	CompactEvery int

	Open      bool    // open loop at Rate ops/s; otherwise a closed loop
	Rate      float64 // open loop: operations per second
	WriteFrac float64 // open loop: share of operations that write
	Heavy     int     // open loop: pages at the most prolific heading per 10 s
	Scrapes   int     // open loop: GET /debug/metrics per run
	Clients   int     // closed loop: concurrent clients
	Batch     int     // closed loop over HTTP: works per POST /works:batch
	Publish   bool    // closed loop over the facade: front-matter builds
}

// workloads are the benchmark's traffic mixes. The 100k-work store is the
// same for browse, ingest and mixed at a given seed.
//
// ingest runs one writer posting 256-work batches. At one shard every
// commit holds the same lock, so a second writer adds little throughput;
// it only makes each latency one commit or two, depending on whether the
// other writer held the lock. And a 64-work commit is short beside a
// collection cycle, which at this store's size runs for most of the
// time: latencies fell into a fast mode and a slow mode, and the median
// sat where they meet. Over ten seeds its interquartile range was more
// than a quarter of it. A 256-work commit spans a good part of a cycle,
// so its latency varies smoothly. Lock contention is measured by the
// traced run's two-writer probe (facade.lock_wait_us).
var workloads = []workload{
	{Name: "browse", Stored: 100_000, Stream: streamWorks, Shards: 1,
		Open: true, Rate: 150, Heavy: 1},
	{Name: "ingest", Stored: 100_000, Stream: streamWorks, Shards: 1, CompactEvery: 4096,
		Clients: 1, Batch: 256},
	{Name: "mixed", Stored: 100_000, Stream: streamWorks, Shards: 4,
		Open: true, Rate: 150, WriteFrac: 0.10, Scrapes: 2},
	{Name: "publish", Stored: 4_000, Shards: 1,
		Clients: 1, Publish: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadWorkers bounds the goroutines that generate load: never more than
// the CPUs the process may use.
func loadWorkers() int { return max(1, min(2, runtime.GOMAXPROCS(0))) }

// publishOptions is the front matter a publish op renders: the paginated
// text author index with its statistics and network appendices.
var publishOptions = authorindex.RenderOptions{
	Format: authorindex.Text, PageLength: 60, Statistics: true, Network: true,
}

// env is one workload's prepared state inside one benchmark process.
type env struct {
	w      workload
	seed   int64
	coll   collate.Options
	corpus corpus
	keys   *keys

	fixture string // the generated store, built once per process
	runDir  string // the copy this run opens and writes
	opts    authorindex.Options

	ix      *authorindex.Index
	handler http.Handler

	// lean drops the generated inputs once a run is planned; a traced
	// run keeps them for its layer probes.
	lean bool
}

// prepare generates the workload's inputs from the seed and builds its
// store fixture under data. Fixture time is harness time: it is not part
// of any metric.
func prepare(w workload, seed int64, data string) (*env, error) {
	e := &env{
		w:      w,
		seed:   seed,
		coll:   authorindex.DefaultCollation(),
		corpus: genCorpus(seed, w.Stored, w.Stream),
		opts:   authorindex.Options{Shards: w.Shards, CompactEvery: w.CompactEvery},
	}
	e.keys = newKeys(e.corpus.Stored, e.coll)
	e.fixture = filepath.Join(data, w.Name, "fixture")
	e.runDir = filepath.Join(data, w.Name, "run")
	if err := buildStore(e.fixture, e.corpus.Stored); err != nil {
		return nil, err
	}
	return e, copyDir(e.fixture, e.runDir)
}

// open opens the run's store and serves it through a fresh handler with
// its own metrics registry.
func (e *env) open() error {
	ix, err := authorindex.Open(e.runDir, &e.opts)
	if err != nil {
		return err
	}
	e.ix = ix
	e.handler = httpapi.New(ix, httpapi.Config{Registry: obs.NewRegistry()}).Handler()
	return nil
}

func (e *env) close() error {
	if e.ix == nil {
		return nil
	}
	err := e.ix.Close()
	e.ix, e.handler = nil, nil
	return err
}

// setupResult is what measureSetup reports.
type setupResult struct {
	Opens  []float64 // seconds per measured open
	LiveMB float64   // live heap the index added on its first open
}

// setup_s is the median over at least setupOpens cold opens, after one
// discarded warm-up open, and over as many more as fit in setupBudget,
// so a small store's millisecond opens are sampled enough to be steady.
const (
	setupOpens  = 7
	setupBudget = 2 * time.Second
	maxOpens    = 50
)

// measureSetup times cold opens of the run's store: one warm-up open,
// whose live-heap growth is the index footprint, then the timed opens,
// with a collection before each. The last open stays open for the
// run. Opening writes no records, so the run still starts from the
// fixture's bytes.
func (e *env) measureSetup() (setupResult, error) {
	var res setupResult
	before := liveHeap()
	if err := e.open(); err != nil {
		return res, err
	}
	res.LiveMB = float64(liveHeap()-before) / (1 << 20)
	var spent time.Duration
	for i := 0; i < maxOpens && (i < setupOpens || spent < setupBudget); i++ {
		if err := e.close(); err != nil {
			return res, err
		}
		runtime.GC()
		start := time.Now()
		if err := e.open(); err != nil {
			return res, err
		}
		took := time.Since(start)
		spent += took
		res.Opens = append(res.Opens, took.Seconds())
	}
	return res, nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runResult is one timed run of a workload.
type runResult struct {
	Samples   []sample
	Elapsed   time.Duration
	Committed int     // works durably acknowledged
	Failures  []error // oracle failures, first few
	Acked     map[model.WorkID]*model.Work
	Hash      string     // publish: the artifact hash every op produced
	Ops       []*op      // HTTP workloads: the operations sent
	Resp      []response // HTTP workloads: their responses, by op
}

// run drives the workload for d and checks every response. Writers take
// their works from the front of the stream, so a later run in the same
// process posts works not posted before. A traced run passes observe to
// see every operation as it completes; timed runs pass nil.
func (e *env) run(d time.Duration, observe func(*op)) (*runResult, error) {
	switch {
	case e.w.Publish:
		return e.runPublish(d)
	case e.w.Open:
		p := newPlanner(e.seed, e.keys, e.corpus.Stream)
		plan, err := p.openPlan(int(e.w.Rate*d.Seconds()), e.w.WriteFrac, e.w.Heavy*max(1, int(d/(10*time.Second))), e.w.Scrapes)
		if err != nil {
			return nil, err
		}
		res := &runResult{Ops: plan, Resp: make([]response, len(plan))}
		e.corpus.Stream = p.stream
		e.settle()
		start := time.Now()
		res.Samples = runOpenLoop(e.w.Rate, len(plan), loadWorkers(), func(i int) bool {
			res.Resp[i] = e.serve(plan[i])
			if observe != nil {
				observe(plan[i])
			}
			return true
		})
		res.Elapsed = time.Since(start)
		e.checkHTTP(res)
		return res, nil
	default:
		p := newPlanner(e.seed, e.keys, e.corpus.Stream)
		var plan []*op
		for {
			o, ok := p.batch(e.w.Batch)
			if !ok {
				break
			}
			plan = append(plan, o)
		}
		resp := make([]response, len(plan))
		e.settle()
		samples, elapsed := runClosedLoop(d, len(plan), e.w.Clients, func(i int) bool {
			resp[i] = e.serve(plan[i])
			if observe != nil {
				observe(plan[i])
			}
			return true
		})
		if len(samples) == len(plan) {
			return nil, fmt.Errorf("%s: the stream of %d works ran dry before the run ended", e.w.Name, len(e.corpus.Stream))
		}
		e.corpus.Stream = e.corpus.Stream[len(samples)*e.w.Batch:]
		res := &runResult{Samples: samples, Elapsed: elapsed, Ops: plan[:len(samples)], Resp: resp[:len(samples)]}
		e.checkHTTP(res)
		return res, nil
	}
}

// settle drops the inputs a run no longer needs once its operations are
// planned — the generated corpus would otherwise double the heap the
// collector scans — and starts the run from a fresh collection.
func (e *env) settle() {
	if e.lean {
		e.corpus.Stored, e.keys = nil, nil
		if e.w.Batch == 0 && e.w.WriteFrac == 0 {
			e.corpus.Stream = nil
		}
	}
	runtime.GC()
}

// serve sends one request through the server's handler in process.
func (e *env) serve(o *op) response {
	var body *bytes.Reader
	if o.Body != nil {
		body = bytes.NewReader(o.Body)
	}
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(o.Method, o.Path, body)
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(o.Method, o.Path, nil)
	}
	rec := httptest.NewRecorder()
	e.handler.ServeHTTP(rec, req)
	return response{Status: rec.Code, Body: rec.Body.Bytes()}
}

// checkHTTP runs the oracle over every response once the timed loop is
// over, so checking costs the measured requests nothing, and collects the
// acknowledged writes.
func (e *env) checkHTTP(res *runResult) {
	res.Acked = make(map[model.WorkID]*model.Work)
	for i, o := range res.Ops {
		ids, err := checkResponse(o, res.Resp[i], e.coll)
		if err != nil {
			res.Samples[i].OK = false
			res.fail(err)
			continue
		}
		res.Samples[i].OK = true
		for j, id := range ids {
			res.Acked[id] = o.Works[j]
		}
		res.Committed += len(ids)
	}
}

func (res *runResult) fail(err error) {
	if len(res.Failures) < 5 {
		res.Failures = append(res.Failures, err)
	}
}

// runPublish builds the front matter back to back for d: the paginated
// author index with both appendices, then the title and subject indexes.
// Every build must hash identically, since nothing writes meanwhile.
func (e *env) runPublish(d time.Duration) (*runResult, error) {
	res := &runResult{}
	hashes := make([]string, 1<<12)
	var buf bytes.Buffer
	samples, elapsed := runClosedLoop(d, len(hashes), 1, func(i int) bool {
		buf.Reset()
		if err := e.ix.Render(&buf, publishOptions); err != nil {
			res.fail(err)
			return false
		}
		if err := e.ix.RenderTitleIndex(&buf, authorindex.RenderOptions{Format: authorindex.Text}); err != nil {
			res.fail(err)
			return false
		}
		if err := e.ix.RenderSubjectIndex(&buf, authorindex.RenderOptions{Format: authorindex.Text}); err != nil {
			res.fail(err)
			return false
		}
		sum := sha256.Sum256(buf.Bytes())
		hashes[i] = hex.EncodeToString(sum[:])
		return true
	})
	res.Samples, res.Elapsed = samples, elapsed
	for i := range samples {
		if !samples[i].OK {
			continue
		}
		if res.Hash == "" {
			res.Hash = hashes[i]
		}
		if hashes[i] != res.Hash {
			samples[i].OK = false
			res.fail(fmt.Errorf("publish op %d: artifact hash %s, first op %s", i, hashes[i], res.Hash))
		}
	}
	return res, nil
}

// finish closes the run's index, measures the store, and for workloads
// that wrote reopens it and reads every acknowledged work back. It
// returns the store's bytes per work.
func (e *env) finish(res *runResult) (float64, error) {
	if err := e.close(); err != nil {
		return 0, err
	}
	size, err := dirBytes(e.runDir)
	if err != nil {
		return 0, err
	}
	perWork := float64(size) / float64(e.w.Stored+res.Committed)
	if len(res.Acked) == 0 {
		return perWork, nil
	}
	ix, err := authorindex.Open(e.runDir, &e.opts)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer ix.Close()
	lost := lostOnReopen(ix, res.Acked)
	if len(lost) > 0 {
		res.fail(fmt.Errorf("%d acknowledged works did not read back equal after reopen", len(lost)))
	}
	// Charge each lost work to the op that acknowledged it.
	for i, o := range res.Ops {
		for _, w := range o.Works {
			if lost[w] {
				res.Samples[i].OK = false
			}
		}
	}
	return perWork, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(blob, []byte("\n")) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
