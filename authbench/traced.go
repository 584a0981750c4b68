package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	authorindex "repro"
	"repro/internal/collate"
	"repro/internal/graph"
	"repro/internal/httpapi"
	imetrics "repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/wal"
)

// layerMetrics collects the per-layer report.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// runTraced is the per-layer run. It runs the workload twice for half
// the time each — once plain, once observed (epochs alive, compactions,
// runtime counters) — and then times calls into each layer's public
// functions directly, on the same store, so every layer gets numbers
// without a span inside the program. Where the facade already records a
// child span under the context it is given (lock.wait, wal.fsync), the
// probe reads it.
func runTraced(w workload, seed int64, data string, d time.Duration) (*report, error) {
	e, err := prepare(w, seed, data)
	if err != nil {
		return nil, err
	}
	if err := e.open(); err != nil {
		return nil, err
	}
	m := layerMetrics{}
	half := max(d/2, time.Second)

	plain, err := e.run(half, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	ob := &runObserver{ix: e.ix, snapshot: filepath.Join(e.runDir, "snapshot.dat")}
	ob.lastSnap = ob.snapStamp()
	ob.observe(nil)
	rt0 := readRuntime()
	observed, err := e.run(half, ob.observe)
	if err != nil {
		e.close()
		return nil, err
	}
	rt1 := readRuntime()
	plainLat := latenciesMS(plain)
	p50A, p50B := mixP50(plain.Samples, kindsOf(plain)), mixP50(observed.Samples, kindsOf(observed))
	m.set("bench.tail_ms", tailOf(plainLat, tailMinBeyond).Value, "ms")
	m.set("bench.trace_overhead_pct", 100*(p50B/p50A-1), "%")
	var lags []float64
	for _, s := range observed.Samples {
		lags = append(lags, ms(s.Lag))
	}
	m.set("bench.lag_p99_ms", percentileOf(lags, 0.99), "ms")
	m.set("shard.epochs_alive_max", float64(ob.epochsMax.Load()), "count")
	m.set("storage.compactions", float64(ob.compactions.Load()), "count")
	rt1.report(m, rt0, len(observed.Samples))

	if err := e.probe(m); err != nil {
		e.close()
		return nil, err
	}
	res := merge(plain, observed)
	if _, err := e.finish(res); err != nil {
		return nil, err
	}
	if err := probeStorage(e, m); err != nil {
		return nil, err
	}

	ok := 0
	for _, s := range res.Samples {
		if s.OK {
			ok++
		}
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %v\n", f)
	}
	fmt.Printf("workload %s  seed %d  traced: p50 %.3f ms plain, %.3f ms observed\n", w.Name, seed, p50A, p50B)
	return &report{
		Correct:   ok == len(res.Samples) && len(res.Samples) > 0,
		Attempted: len(res.Samples),
		Failed:    len(res.Samples) - ok,
		Metrics:   m,
	}, nil
}

// merge joins two runs on the same index for the end-of-run checks.
func merge(a, b *runResult) *runResult {
	out := &runResult{
		Samples:   append(append([]sample(nil), a.Samples...), b.Samples...),
		Ops:       append(append([]*op(nil), a.Ops...), b.Ops...),
		Committed: a.Committed + b.Committed,
		Acked:     make(map[model.WorkID]*model.Work),
		Failures:  append(append([]error(nil), a.Failures...), b.Failures...),
	}
	for _, r := range []*runResult{a, b} {
		for id, w := range r.Acked {
			out.Acked[id] = w
		}
	}
	return out
}

// runObserver samples the index while the observed run is under way.
type runObserver struct {
	epochsMax   atomic.Int64
	compactions atomic.Int64

	ix       *authorindex.Index
	snapshot string
	mu       sync.Mutex
	lastSnap string
}

func (o *runObserver) observe(op *op) {
	for n := o.ix.EpochsAlive(); ; {
		cur := o.epochsMax.Load()
		if n <= cur || o.epochsMax.CompareAndSwap(cur, n) {
			break
		}
	}
	if op == nil || len(op.Works) == 0 {
		return
	}
	// Every compaction rewrites the snapshot file.
	stamp := o.snapStamp()
	o.mu.Lock()
	if stamp != o.lastSnap {
		o.lastSnap = stamp
		o.compactions.Add(1)
	}
	o.mu.Unlock()
}

func (o *runObserver) snapStamp() string {
	fi, err := os.Stat(o.snapshot)
	if err != nil {
		return ""
	}
	return fmt.Sprint(fi.ModTime().UnixNano(), fi.Size())
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample []metrics.Sample

func readRuntime() runtimeSample {
	s := runtimeSample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s
}

// report sets the runtime metrics for the interval since before.
func (s runtimeSample) report(m layerMetrics, before runtimeSample, requests int) {
	m.set("runtime.gc_cycles", float64(s[0].Value.Uint64()-before[0].Value.Uint64()), "count")
	m.set("runtime.gc_pause_p99_ms", 1e3*histDeltaQuantile(before[1].Value.Float64Histogram(), s[1].Value.Float64Histogram(), 0.99), "ms")
	m.set("runtime.sched_latency_p99_ms", 1e3*histDeltaQuantile(before[2].Value.Float64Histogram(), s[2].Value.Float64Histogram(), 0.99), "ms")
	allocs := float64(s[3].Value.Uint64() - before[3].Value.Uint64())
	m.set("runtime.alloc_kb_per_req", allocs/1024/float64(max(1, requests)), "KB")
}

// histDeltaQuantile is quantile q of the observations a runtime histogram
// gained between two readings, as the upper edge of the bucket holding it.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// probeReads is how many browse-mix reads the read probes time.
const probeReads = 300

// probe times the layers on the open index and an engine loaded from the
// same corpus.
func (e *env) probe(m layerMetrics) error {
	ctx := context.Background()
	p := newPlanner(e.seed+1, e.keys, nil)
	reads := make([]*op, probeReads)
	for i := range reads {
		reads[i] = p.read()
	}

	// httpapi: the same reads through the handler, then straight into the
	// facade; the difference per request is the HTTP layer's own time.
	tHTTP := make([]float64, len(reads))
	size := map[opKind][]float64{}
	var sizes []float64
	for i, o := range reads {
		start := time.Now()
		r := e.serve(o)
		tHTTP[i] = us(time.Since(start))
		if _, err := checkResponse(o, r, e.coll); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		kb := float64(len(r.Body)) / 1024
		size[o.Kind] = append(size[o.Kind], kb)
		sizes = append(sizes, kb)
	}
	before := e.ix.Stats()
	tFac := make([]float64, len(reads))
	for i, o := range reads {
		start := time.Now()
		facadeRead(ctx, e.ix, o)
		tFac[i] = us(time.Since(start))
	}
	after := e.ix.Stats()
	m.set("facade.works_cloned_per_req", float64(after.WorksCloned-before.WorksCloned)/float64(len(reads)), "count")
	var self []float64
	byKind := map[opKind][]float64{}
	for i, o := range reads {
		self = append(self, tHTTP[i]-tFac[i])
		byKind[o.Kind] = append(byKind[o.Kind], tFac[i])
	}
	m.set("httpapi.self_us", median(self), "us")
	m.set("httpapi.resp_kb", mean(sizes), "KB")
	m.set("facade.read_us", median(tFac), "us")
	for _, k := range readKinds {
		m.set("httpapi.resp_kb."+k.String(), mean(size[k]), "KB")
		m.set("facade.read_us."+k.String(), median(byKind[k]), "us")
	}

	// httpapi decode: the batch body decode plus the per-work parsing the
	// write handlers do before the facade sees anything, over batches of
	// stored works.
	var decode []float64
	for i := 0; i+64 <= len(e.keys.ids) && i < 16*64; i += 64 {
		body := batchOf(e.keys.ids[i:i+64], e.keys)
		start := time.Now()
		if err := decodeBatch(body); err != nil {
			return fmt.Errorf("probe decode: %w", err)
		}
		decode = append(decode, us(time.Since(start))/64)
	}
	m.set("httpapi.decode_us_per_work", median(decode), "us")

	if err := e.probeShards(ctx, m, reads); err != nil {
		return err
	}
	if err := e.probeWrites(ctx, m); err != nil {
		return err
	}
	e.probeRender(m)
	e.probeScrape(m)
	return e.probeEngine(m, reads, tFac)
}

// facadeRead is the facade call the handler makes for a read.
func facadeRead(ctx context.Context, ix *authorindex.Index, o *op) {
	switch o.Kind {
	case opSearch:
		ix.SearchCtx(ctx, o.Term, o.Limit)
	case opAuthors:
		if o.After != "" {
			ix.AuthorsPageCtx(ctx, o.After, o.Limit)
		} else {
			ix.AuthorsCtx(ctx, "", o.Limit)
		}
	case opGet:
		ix.GetCtx(ctx, o.Want.ID)
	case opYears:
		ix.YearRangeCtx(ctx, o.From, o.To, o.Limit)
	case opRank:
		ix.TopAuthorsCtx(ctx, authorindex.ByWeighted, o.Limit)
	case opSubjects:
		ix.Subjects()
	}
}

// engineRead is the same read on a bare query engine.
func engineRead(eng *query.Engine, o *op) {
	switch o.Kind {
	case opSearch:
		eng.TitleSearch(o.Term, o.Limit)
	case opAuthors:
		if o.After != "" {
			eng.AuthorPage(o.After, o.Limit)
		} else {
			eng.AuthorPrefix("", o.Limit)
		}
	case opGet:
		eng.Work(o.Want.ID)
	case opYears:
		eng.YearRange(o.From, o.To, o.Limit)
	case opRank:
		eng.TopAuthors(imetrics.ByWeighted, o.Limit)
	case opSubjects:
		eng.Subjects()
	}
}

// decodeBatch is what POST /works:batch does to a body before calling the
// facade: decode the JSON, then parse every citation, kind and author.
func decodeBatch(body []byte) error {
	var in []httpapi.Work
	if err := json.Unmarshal(body, &in); err != nil {
		return err
	}
	for _, w := range in {
		if _, err := authorindex.ParseCitation(w.Citation); err != nil {
			return err
		}
		if _, err := authorindex.ParseKind(strings.ToLower(w.Kind)); err != nil {
			return err
		}
		for _, h := range w.Authors {
			if _, err := authorindex.ParseAuthor(h); err != nil {
				return err
			}
		}
	}
	return nil
}

func batchOf(ids []model.WorkID, k *keys) []byte {
	wire := make([]httpapi.Work, len(ids))
	for i, id := range ids {
		wire[i] = wireWork(postable(k.byID[id]))
	}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err)
	}
	return body
}

// probeShards opens a second index on a copy of the fixture with the
// other shard layout (4 shards beside 1, 1 beside 4) and times the same
// facade reads on both: the difference is what sharding costs a read.
func (e *env) probeShards(ctx context.Context, m layerMetrics, reads []*op) error {
	dir := filepath.Join(filepath.Dir(e.runDir), "shards")
	if err := copyDir(e.fixture, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := e.opts
	opts.Shards = 4
	if e.w.Shards > 1 {
		opts.Shards = 1
	}
	other, err := authorindex.Open(dir, &opts)
	if err != nil {
		return err
	}
	defer other.Close()
	one, four := e.ix, other
	if e.w.Shards > 1 {
		one, four = other, e.ix
	}
	timed := func(ix *authorindex.Index, o *op) float64 {
		start := time.Now()
		facadeRead(ctx, ix, o)
		return us(time.Since(start))
	}
	var diff []float64
	for i, o := range reads {
		// Alternate which index answers first, so neither is always
		// the one that finds the caches warm.
		if i%2 == 0 {
			t4 := timed(four, o)
			diff = append(diff, t4-timed(one, o))
		} else {
			t1 := timed(one, o)
			diff = append(diff, timed(four, o)-t1)
		}
	}
	m.set("shard.overhead_us", median(diff), "us")
	return nil
}

// probeWrites commits 64-work batches from two writers at once through
// the facade under a traced context: the commit time per batch, and the
// lock.wait span the facade records for each.
func (e *env) probeWrites(ctx context.Context, m layerMetrics) error {
	const writers, perWriter = 2, 8
	batches := make([][]authorindex.Work, writers*perWriter)
	p := newPlanner(e.seed+2, e.keys, e.corpus.Stream)
	for i := range batches {
		ws, ok := p.take(64)
		if !ok {
			// Stores without a write stream re-post stored works as new.
			ws = make([]*model.Work, 64)
			for j := range ws {
				ws[j] = e.keys.byID[e.keys.ids[(i*64+j)%len(e.keys.ids)]]
			}
		}
		for _, w := range ws {
			batches[i] = append(batches[i], *postable(w))
		}
	}
	e.corpus.Stream = p.stream
	tracer := trace.NewTracer(trace.Config{})
	commit := make([]float64, len(batches))
	wait := make([]float64, len(batches))
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				i := wr*perWriter + j
				tctx, tr := tracer.StartRoot(ctx, "", "probe.add_batch")
				start := time.Now()
				_, err := e.ix.AddBatchCtx(tctx, batches[i])
				commit[i] = us(time.Since(start))
				tr.Finish("probe")
				if err != nil {
					errs[wr] = err
					return
				}
				wait[i] = sum(spanDurations(tr.Data().Root, "lock.wait", nil))
			}
		}(wr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("probe writes: %w", err)
		}
	}
	m.set("facade.commit_us", median(commit), "us")
	m.set("facade.lock_wait_us", median(wait), "us")
	return nil
}

// spanDurations lists the durations, in µs, of the spans named name.
func spanDurations(s trace.SpanData, name string, out []float64) []float64 {
	if s.Name == name {
		out = append(out, float64(s.DurNS)/1e3)
	}
	for _, c := range s.Children {
		out = spanDurations(c, name, out)
	}
	return out
}

// probeRender times the front-matter builds on the open index.
func (e *env) probeRender(m layerMetrics) {
	reps := 3
	if e.w.Stored > 20_000 {
		reps = 1 // the title index alone takes seconds here
	}
	var sec, auth, title, subj []float64
	var out int
	for r := 0; r < reps; r++ {
		start := time.Now()
		e.ix.Sections()
		sec = append(sec, ms(time.Since(start)))
		var buf bytes.Buffer
		start = time.Now()
		e.ix.Render(&buf, publishOptions)
		auth = append(auth, ms(time.Since(start)))
		start = time.Now()
		e.ix.RenderTitleIndex(&buf, authorindex.RenderOptions{Format: authorindex.Text})
		title = append(title, ms(time.Since(start)))
		start = time.Now()
		e.ix.RenderSubjectIndex(&buf, authorindex.RenderOptions{Format: authorindex.Text})
		subj = append(subj, ms(time.Since(start)))
		out = buf.Len()
	}
	m.set("facade.sections_ms", median(sec), "ms")
	m.set("render.author_index_ms", median(auth), "ms")
	m.set("render.title_index_ms", median(title), "ms")
	m.set("render.subject_index_ms", median(subj), "ms")
	m.set("render.out_kb", float64(out)/1024, "KB")
}

// probeScrape times GET /debug/metrics on the open index.
func (e *env) probeScrape(m layerMetrics) {
	var t, kb []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		r := e.serve(&op{Kind: opScrape, Method: "GET", Path: "/debug/metrics"})
		t = append(t, ms(time.Since(start)))
		kb = append(kb, float64(len(r.Body))/1024)
	}
	m.set("obs.scrape_ms", median(t), "ms")
	m.set("obs.scrape_kb", median(kb), "KB")
}

// probeEngine loads a bare engine from the stored corpus and times the
// query, metrics, graph and collation layers on it.
func (e *env) probeEngine(m layerMetrics, reads []*op, tFac []float64) error {
	works := e.keys.works()
	eng := query.New(e.coll)
	start := time.Now()
	if err := eng.LoadAll(works); err != nil {
		return fmt.Errorf("probe engine: %w", err)
	}
	m.set("query.load_all_ms", ms(time.Since(start)), "ms")

	tEng := make([]float64, len(reads))
	byKind := map[opKind][]float64{}
	var searches int
	scanned := eng.QueryStats().PostingsBytes
	for i, o := range reads {
		start := time.Now()
		engineRead(eng, o)
		tEng[i] = us(time.Since(start))
		byKind[o.Kind] = append(byKind[o.Kind], tEng[i])
		if o.Kind == opSearch {
			searches++
		}
	}
	// Only searches scan postings.
	m.set("query.postings_scanned_per_search", float64(eng.QueryStats().PostingsBytes-scanned)/float64(max(1, searches)), "bytes")
	self := make([]float64, len(reads))
	for i := range reads {
		self[i] = tFac[i] - tEng[i]
	}
	m.set("facade.self_us", median(self), "us")
	m.set("query.search_us", median(byKind[opSearch]), "us")
	m.set("query.author_prefix_us", median(byKind[opAuthors]), "us")
	m.set("query.work_us", median(byKind[opGet]), "us")
	m.set("query.year_range_us", median(byKind[opYears]), "us")

	stream := e.corpus.Stream
	if len(stream) < 4096 {
		stream = fresh(works, 4096)
	}
	var per []float64
	for j := 0; j < 16; j++ {
		batch := stream[j*64 : (j+1)*64]
		start := time.Now()
		c := eng.Clone()
		if err := c.AddBatch(batch); err != nil {
			return fmt.Errorf("probe clone+add: %w", err)
		}
		per = append(per, us(time.Since(start))/64)
	}
	m.set("query.clone_add_us_per_work", median(per), "us")

	tracker := imetrics.NewEngine(imetrics.Harmonic)
	tracker.Rebuild(works)
	var top []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		tracker.TopAuthors(imetrics.ByWeighted, rankLimit)
		top = append(top, us(time.Since(start)))
	}
	m.set("metrics.top_authors_us", median(top), "us")
	start = time.Now()
	for _, w := range stream[:4096] {
		tracker.Add(w)
	}
	m.set("metrics.add_us_per_work", us(time.Since(start))/4096, "us")

	g := graph.NewFromWorks(graph.DefaultDamping, works)
	var central []float64
	for i := 0; i < 3; i++ {
		g.Add(stream[i]) // invalidates the memoized PageRank
		start := time.Now()
		g.TopCentral(10)
		central = append(central, ms(time.Since(start)))
	}
	m.set("graph.top_central_ms", median(central), "ms")
	start = time.Now()
	for _, w := range stream[3:4096] {
		g.Add(w)
	}
	m.set("graph.add_us_per_work", us(time.Since(start))/4093, "us")

	var key []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		for _, w := range works {
			collate.KeyString(w.Title, e.coll)
		}
		key = append(key, float64(time.Since(start).Nanoseconds())/float64(len(works)))
	}
	m.set("collate.key_ns", median(key), "ns")
	return nil
}

// fresh copies n of the stored works, cycling, under new IDs past them;
// stores without a write stream index these.
func fresh(works []*model.Work, n int) []*model.Work {
	out := make([]*model.Work, n)
	next := model.WorkID(len(works) + 1)
	for i := range out {
		c := *works[i%len(works)]
		c.ID = next
		next++
		out[i] = &c
	}
	return out
}

// probeStorage times the storage and WAL layers on a fresh copy of the
// fixture: opens, 64-work batch commits with fsync (reading the
// wal.fsync spans the WAL records under the context), and compactions.
func probeStorage(e *env, m layerMetrics) error {
	dir := filepath.Join(filepath.Dir(e.runDir), "storage")
	if err := copyDir(e.fixture, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var opens []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		st, err := storage.Open(dir, storage.Options{})
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(start)))
		if err := st.Close(); err != nil {
			return err
		}
	}
	m.set("storage.open_ms", median(opens), "ms")

	st, err := storage.Open(dir, storage.Options{WAL: wal.Options{}})
	if err != nil {
		return err
	}
	defer st.Close()
	src := e.corpus.Stream
	if len(src) == 0 {
		src = e.keys.works()
	}
	works := make([]*model.Work, 32*64)
	for i := range works {
		works[i] = postable(src[i%len(src)])
	}
	tracer := trace.NewTracer(trace.Config{})
	before := st.Stats()
	var put, fsync []float64
	for i := 0; i < 32; i++ {
		ctx, tr := tracer.StartRoot(context.Background(), "", "probe.put_batch")
		start := time.Now()
		if _, err := st.PutBatchCtx(ctx, works[i*64:(i+1)*64]); err != nil {
			return fmt.Errorf("probe put: %w", err)
		}
		put = append(put, us(time.Since(start)))
		tr.Finish("probe")
		fsync = spanDurations(tr.Data().Root, "wal.fsync", fsync)
	}
	after := st.Stats()
	m.set("storage.put_batch_us", median(put), "us")
	m.set("wal.fsync_us", median(fsync), "us")
	m.set("wal.syncs_per_commit", float64(after.WALSyncs-before.WALSyncs)/32, "count")
	m.set("wal.bytes_per_work", float64(after.WALBytes-before.WALBytes)/float64(len(works)), "bytes")
	var compact []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := st.Compact(); err != nil {
			return fmt.Errorf("probe compact: %w", err)
		}
		compact = append(compact, ms(time.Since(start)))
	}
	m.set("storage.compact_ms", median(compact), "ms")
	return nil
}
