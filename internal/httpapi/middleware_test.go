package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	authorindex "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

func openIndex(t *testing.T) *authorindex.Index {
	t.Helper()
	ix, err := authorindex.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// TestRequestIDGeneratedAndLogged: a request without an X-Request-ID
// gets one generated, echoed in the response header, and written into
// the structured access log; a client-supplied ID is propagated as-is.
func TestRequestIDGeneratedAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &logBuf, mu: &mu}, nil))
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(openIndex(t), Config{Logger: logger, Registry: reg}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get(RequestIDHeader)
	if rid == "" {
		t.Fatal("no X-Request-ID in response")
	}
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "request_id="+rid) {
		t.Errorf("access log lacks request_id=%s:\n%s", rid, logged)
	}
	if !strings.Contains(logged, "route=\"GET /healthz\"") {
		t.Errorf("access log lacks route pattern:\n%s", logged)
	}

	// Client-supplied IDs are honored.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "client-chose-this")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-chose-this" {
		t.Errorf("client request ID not propagated: %q", got)
	}

	// Two generated IDs differ.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if rid2 := resp2.Header.Get(RequestIDHeader); rid2 == rid {
		t.Errorf("two requests got the same generated ID %q", rid)
	}
}

type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestStatusCodesCountedPerRoute: 2xx, 4xx and 5xx land on the counter
// series of the route that served them, and unrouted paths land on the
// "unmatched" label.
func TestStatusCodesCountedPerRoute(t *testing.T) {
	ts, _, reg := testServerReg(t)

	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("/works/1")         // 200 on GET /works/{id}
	get("/works/999")       // 404 on GET /works/{id}
	get("/works/abc")       // 400 on GET /works/{id}
	get("/no/such/path")    // 404, unmatched
	get("/search")          // 400 on GET /search (missing q)
	get("/search?q=mining") // 200 on GET /search

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`authdex_http_requests_total{route="GET /works/{id}",code="200"} 1`,
		`authdex_http_requests_total{route="GET /works/{id}",code="404"} 1`,
		`authdex_http_requests_total{route="GET /works/{id}",code="400"} 1`,
		`authdex_http_requests_total{route="unmatched",code="404"} 1`,
		`authdex_http_requests_total{route="GET /search",code="400"} 1`,
		`authdex_http_requests_total{route="GET /search",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	// Latency histograms exist per route too.
	if !strings.Contains(out, `authdex_http_request_duration_seconds_count{route="GET /works/{id}"} 3`) {
		t.Errorf("per-route duration count missing:\n%s", out)
	}
}

// TestInFlightGauge: the gauge reads 1 while a handler is blocked
// inside the middleware and 0 again once every request completes.
func TestInFlightGauge(t *testing.T) {
	ix := openIndex(t)
	reg := obs.NewRegistry()
	s := New(ix, Config{Registry: reg})
	s.Handler() // builds the per-route histogram map the middleware reads

	release := make(chan struct{})
	observed := make(chan int64, 1)
	blocked := s.telemetry(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		observed <- s.inflight.Value()
		<-release
	}))

	srv := httptest.NewServer(blocked)
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/slow")
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	if got := <-observed; got != 1 {
		t.Errorf("in-flight during request = %d, want 1", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stuck at %d after completion", s.inflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthzReadyz(t *testing.T) {
	ts, _, _ := testServerReg(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	// Without verify-on-boot, readiness is immediate.
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Errorf("readyz = %d", code)
	}
}

func TestReadyzVerifyOnBoot(t *testing.T) {
	ix := openIndex(t)
	reg := obs.NewRegistry()
	s := New(ix, Config{Registry: reg, VerifyOnBoot: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Verify on an empty in-memory index is fast; poll until ready.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == 200 {
			break
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("readyz = %d while verifying", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDebugMetricsExposition: /debug/metrics serves the Prometheus
// content type and, after traffic, a healthy number of series — the
// request metrics, the op histograms, the Stats promotions and the
// process gauges.
func TestDebugMetricsExposition(t *testing.T) {
	ts, ix, reg := testServerReg(t)
	for _, p := range []string{"/stats", "/search?q=mining", "/works/1", "/authors?prefix=le"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"authdex_http_request_duration_seconds",
		"authdex_http_requests_total",
		"authdex_http_in_flight_requests",
		"authdex_op_duration_seconds",
		"authdex_queries_served_total",
		"authdex_works 3",
		"authdex_go_goroutines",
		"authdex_go_heap_objects",
		"authdex_process_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if n := reg.SeriesCount(); n < 20 {
		t.Errorf("only %d series exposed, want >= 20:\n%s", n, out)
	}

	// Every write call records exactly one op-latency sample, under its
	// own op label: single writes run the batch commit but keep theirs.
	writes := []string{"add", "add_batch", "delete", "delete_batch"}
	samples := func() map[string]int64 {
		m := make(map[string]int64, len(writes))
		for _, op := range writes {
			m[op] = reg.Histogram("authdex_op_duration_seconds", "", "op", op).Count()
		}
		return m
	}
	w := authorindex.Work{
		Title:    "Timed Write",
		Citation: authorindex.Citation{Volume: 81, Page: 1, Year: 1978},
		Authors:  []authorindex.Author{{Family: "Clock", Given: "Stop W."}},
	}
	var ids []authorindex.WorkID
	for _, c := range []struct {
		op string
		do func() error
	}{
		{"add", func() error { id, err := ix.Add(w); ids = append(ids, id); return err }},
		{"add_batch", func() error {
			got, err := ix.AddBatch([]authorindex.Work{w, w})
			ids = append(ids, got...)
			return err
		}},
		{"delete", func() error { return ix.Delete(ids[0]) }},
		{"delete_batch", func() error { return ix.DeleteBatch(ids[1:]) }},
	} {
		before := samples()
		if err := c.do(); err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		after := samples()
		for _, op := range writes {
			want := before[op]
			if op == c.op {
				want++
			}
			if after[op] != want {
				t.Errorf("after one %s call, op=%q has %d samples, want %d", c.op, op, after[op], want)
			}
		}
	}
}

// TestOwnRegistryScrapesEveryLayer: a server built with its own
// registry, as authbench builds it, scrapes its index's WAL, store,
// load-phase and lock-hold series; one durable POST /works is one WAL
// fsync. The engine's mutation timer, which the snapshot swap already
// covers, is gone.
func TestOwnRegistryScrapesEveryLayer(t *testing.T) {
	ix, err := authorindex.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ts := httptest.NewServer(New(ix, Config{Registry: obs.NewRegistry()}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/works", "application/json",
		strings.NewReader(`{"title":"T","citation":"90:1 (1988)","authors":["Zebra, Xavier Q."]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /works = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"\nauthdex_wal_fsync_duration_seconds_count 1\n",
		"\nauthdex_wal_frame_encode_duration_seconds_count 1\n",
		"\nauthdex_storage_encode_duration_seconds_count 1\n",
		"\nauthdex_storage_compact_duration_seconds_count 0\n",
		"\nauthdex_load_phase_duration_seconds_count{phase=\"metrics\"} 1\n",
		"\nauthdex_lock_hold_duration_seconds_count{holder=\"write\"} 1\n",
		"\nauthdex_snapshot_swap_duration_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(want))
		}
	}
	if strings.Contains(out, "authdex_index_mutation_duration_seconds") {
		t.Error("exposition still has authdex_index_mutation_duration_seconds")
	}
}

// TestOpTimersOneSamplePerCall: each of the facade operations with a
// span records exactly one authdex_op_duration_seconds sample on the
// server's registry, under its own op label, traced or not; traced, that
// sample is the facade span's duration. Each write also records one
// authdex_lock_wait_duration_seconds sample and one
// authdex_lock_hold_duration_seconds{holder="write"} sample (traced,
// the lock.hold span's duration), and a read none; every other call
// that takes the writer mutex, Close included, records one wait and
// one hold under its own holder.
func TestOpTimersOneSamplePerCall(t *testing.T) {
	_, ix, reg := testServerReg(t)
	w := authorindex.Work{
		Title:    "Timed Op",
		Citation: authorindex.Citation{Volume: 82, Page: 1, Year: 1979},
		Authors:  []authorindex.Author{{Family: "Clock", Given: "Stop W."}},
	}
	var ids []authorindex.WorkID
	ops := []struct {
		op    string
		write bool
		do    func(ctx context.Context) error
	}{
		{"search", false, func(ctx context.Context) error { ix.SearchCtx(ctx, "mining", 0); return nil }},
		{"year_range", false, func(ctx context.Context) error { ix.YearRangeCtx(ctx, 1970, 1999, 0); return nil }},
		{"volume", false, func(ctx context.Context) error { ix.VolumeWorksCtx(ctx, 75, 0); return nil }},
		{"by_subject", false, func(ctx context.Context) error { ix.BySubjectCtx(ctx, "Mining Law", 0); return nil }},
		{"get", false, func(ctx context.Context) error { ix.GetCtx(ctx, 1); return nil }},
		{"authors", false, func(ctx context.Context) error { ix.AuthorsCtx(ctx, "le", 0); return nil }},
		{"authors_page", false, func(ctx context.Context) error { ix.AuthorsPageCtx(ctx, "", 0); return nil }},
		{"rank", false, func(ctx context.Context) error { ix.TopAuthorsCtx(ctx, authorindex.ByWorks, 5); return nil }},
		{"central", false, func(ctx context.Context) error { ix.TopCentralCtx(ctx, 5); return nil }},
		{"render", false, func(ctx context.Context) error {
			return ix.RenderCtx(ctx, io.Discard, authorindex.RenderOptions{Statistics: true, Network: true})
		}},
		{"render_titles", false, func(ctx context.Context) error {
			return ix.RenderTitleIndexCtx(ctx, io.Discard, authorindex.RenderOptions{})
		}},
		{"render_subjects", false, func(ctx context.Context) error {
			return ix.RenderSubjectIndexCtx(ctx, io.Discard, authorindex.RenderOptions{})
		}},
		{"add", true, func(ctx context.Context) error {
			id, err := ix.AddCtx(ctx, w)
			ids = append(ids, id)
			return err
		}},
		{"add_batch", true, func(ctx context.Context) error {
			got, err := ix.AddBatchCtx(ctx, []authorindex.Work{w, w})
			ids = append(ids, got...)
			return err
		}},
		{"delete", true, func(ctx context.Context) error {
			id := ids[0]
			ids = ids[1:]
			return ix.DeleteCtx(ctx, id)
		}},
		{"delete_batch", true, func(ctx context.Context) error {
			batch := ids[:2]
			ids = ids[2:]
			return ix.DeleteBatchCtx(ctx, batch)
		}},
	}
	hist := func(op string) *obs.Histogram {
		return reg.Histogram("authdex_op_duration_seconds", "", "op", op)
	}
	lockWait := reg.Histogram("authdex_lock_wait_duration_seconds", "")
	hold := func(holder string) *obs.Histogram {
		return reg.Histogram("authdex_lock_hold_duration_seconds", "", "holder", holder)
	}
	// checkHolds asserts that only holder gained a hold sample, one.
	checkHolds := func(call, holder string) func() {
		holders := []string{"write", "see_also", "rebuild", "compact", "verify", "close"}
		before := make(map[string]int64, len(holders))
		for _, h := range holders {
			before[h] = hold(h).Count()
		}
		return func() {
			for _, h := range holders {
				want := before[h]
				if h == holder {
					want++
				}
				if n := hold(h).Count(); n != want {
					t.Errorf("after one %s, lock hold{holder=%q} has %d samples, want %d", call, h, n, want)
				}
			}
		}
	}
	counts := func() map[string]int64 {
		m := make(map[string]int64, len(ops))
		for _, c := range ops {
			m[c.op] = hist(c.op).Count()
		}
		return m
	}
	tracer := trace.NewTracer(trace.Config{})
	for _, c := range ops {
		for _, traced := range []bool{false, true} {
			ctx, tr := context.Background(), (*trace.Trace)(nil)
			if traced {
				ctx, tr = tracer.StartRoot(ctx, "", "test")
			}
			before, waits, sum := counts(), lockWait.Count(), hist(c.op).Snapshot().Sum
			holder, holdSum := "", hold("write").Snapshot().Sum
			if c.write {
				holder = "write"
			}
			holds := checkHolds(fmt.Sprintf("%s call (traced %v)", c.op, traced), holder)
			if err := c.do(ctx); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
			holds()
			after := counts()
			for op, n := range after {
				want := before[op]
				if op == c.op {
					want++
				}
				if n != want {
					t.Errorf("after one %s call (traced %v), op=%q has %d samples, want %d", c.op, traced, op, n, want)
				}
			}
			wantWaits := waits
			if c.write {
				wantWaits++
			}
			if n := lockWait.Count(); n != wantWaits {
				t.Errorf("after one %s call (traced %v), lock wait has %d samples, want %d", c.op, traced, n, wantWaits)
			}
			if !traced {
				continue
			}
			tr.Finish("test")
			spans := tr.Data().Root.Children
			if len(spans) != 1 || spans[0].Name != "facade."+c.op {
				t.Fatalf("traced %s: root children %+v, want one facade.%s span", c.op, spans, c.op)
			}
			if got := hist(c.op).Snapshot().Sum - sum; got != spans[0].DurNS {
				t.Errorf("traced %s: sample %dns, span %dns", c.op, got, spans[0].DurNS)
			}
			if !c.write {
				continue
			}
			var held int64 = -1
			for _, sp := range spans[0].Children {
				if sp.Name == "lock.hold" {
					held = sp.DurNS
				}
			}
			if got := hold("write").Snapshot().Sum - holdSum; got != held {
				t.Errorf("traced %s: hold sample %dns, lock.hold span %dns", c.op, got, held)
			}
		}
	}
	for _, c := range []struct {
		name, holder string
		do           func() error
	}{
		{"AddSeeAlso", "see_also", func() error { return ix.AddSeeAlso("Clock, Stop W.", "Watch, Stop") }},
		{"RemoveSeeAlso", "see_also", func() error { return ix.RemoveSeeAlso("Clock, Stop W.", "Watch, Stop") }},
		{"SetMetricsScheme", "rebuild", func() error { return ix.SetMetricsScheme(authorindex.SchemeFractional) }},
		{"RebuildMetrics", "rebuild", func() error { ix.RebuildMetrics(); return nil }},
		{"Compact", "compact", ix.Compact},
		{"Verify", "verify", ix.Verify},
		{"Close", "close", ix.Close},
	} {
		waits := lockWait.Count()
		holds := checkHolds(c.name+" call", c.holder)
		if err := c.do(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		holds()
		if n := lockWait.Count(); n != waits+1 {
			t.Errorf("after one %s call, lock wait has %d samples, want %d", c.name, n, waits+1)
		}
	}
}

// TestPprofGatedByDebug: pprof routes exist only with Config.Debug.
func TestPprofGatedByDebug(t *testing.T) {
	ix := openIndex(t)
	off := httptest.NewServer(New(ix, Config{Registry: obs.NewRegistry()}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -debug = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(New(ix, Config{Registry: obs.NewRegistry(), Debug: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -debug = %d, want 200", resp.StatusCode)
	}
}

// TestAccessLogStatus: the logged status matches what the client saw,
// including error paths.
func TestAccessLogStatus(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&syncWriter{w: &logBuf, mu: &mu}, nil))
	ix := openIndex(t)
	ts := httptest.NewServer(New(ix, Config{Logger: logger, Registry: obs.NewRegistry()}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/works/42")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, `"status":404`) {
		t.Errorf("access log lacks 404 status: %s", logged)
	}
	if !strings.Contains(logged, `"route":"GET /works/{id}"`) {
		t.Errorf("access log lacks route: %s", logged)
	}
	if !strings.Contains(logged, `"path":"/works/42"`) {
		t.Errorf("access log lacks path: %s", logged)
	}
}

// TestTelemetryRecordsUnchanged pins what the middleware emits per
// request now that counters are resolved once per (route, code): the
// counter series and their counts (499 as "canceled", no series for a
// code never served), one access-log record per request with the same
// fields, and generated request IDs in the "%s-%08x" form. Without a
// Logger the counters still count and no record is built.
func TestTelemetryRecordsUnchanged(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&syncWriter{w: &logBuf, mu: &mu}, nil))
	reg := obs.NewRegistry()
	s := New(openIndex(t), Config{Logger: logger, Registry: reg})
	s.Handler()
	h := s.telemetry(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(r.URL.Query().Get("code"))
		stampRoute(r, "GET /works/{id}")
		w.WriteHeader(code)
		io.WriteString(w, "body")
	}))
	codes := []int{200, 404, 200, StatusClientClosedRequest, 200, 503}
	var wg sync.WaitGroup
	ids := make([]string, len(codes))
	for i, code := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/works/%d?code=%d", i, code), nil))
			ids[i] = rec.Header().Get(RequestIDHeader)
		}()
	}
	wg.Wait()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "authdex_http_requests_total{") {
			got = append(got, line)
		}
	}
	sort.Strings(got)
	want := []string{
		`authdex_http_requests_total{route="GET /works/{id}",code="200"} 3`,
		`authdex_http_requests_total{route="GET /works/{id}",code="404"} 1`,
		`authdex_http_requests_total{route="GET /works/{id}",code="503"} 1`,
		`authdex_http_requests_total{route="GET /works/{id}",code="canceled"} 1`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("request counters:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	ridForm := regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{8,}$`)
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	mu.Unlock()
	if len(lines) != len(codes) {
		t.Fatalf("%d access-log records for %d requests", len(lines), len(codes))
	}
	fields := []string{"bytes", "duration", "level", "method", "msg", "path", "remote", "request_id", "route", "status", "time"}
	seen := map[string]bool{}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log %q: %v", line, err)
		}
		keys := make([]string, 0, len(rec))
		for k := range rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !slices.Equal(keys, fields) {
			t.Errorf("access-log fields %v, want %v", keys, fields)
		}
		rid, _ := rec["request_id"].(string)
		if !ridForm.MatchString(rid) || rec["msg"] != "request" || rec["level"] != "INFO" ||
			rec["route"] != "GET /works/{id}" || rec["bytes"] != 4.0 {
			t.Errorf("access-log record %s", line)
		}
		seen[rid] = true
	}
	for _, rid := range ids {
		if !seen[rid] {
			t.Errorf("response request ID %q is not in the access log", rid)
		}
	}

	s.reqSeq.Store(0xfffffffe)
	prefix := s.ridPrefix()
	for _, seq := range []uint64{0xffffffff, 0x100000000} {
		if got, want := s.newRequestID(), fmt.Sprintf("%s-%08x", prefix, seq); got != want {
			t.Errorf("request ID %q, want %q", got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.newRequestID() }); n > 1 {
		t.Errorf("newRequestID allocates %.0f times, want 1", n)
	}

	quiet := New(openIndex(t), Config{Registry: obs.NewRegistry()})
	if quiet.log.Enabled(context.Background(), slog.LevelError) {
		t.Error("the default access log is enabled at ERROR")
	}
}
