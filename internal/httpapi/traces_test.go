package httpapi

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	authorindex "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

func drive(t *testing.T, ts *httptest.Server, paths ...string) {
	t.Helper()
	for _, p := range paths {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestDebugTraces: after traffic, the endpoint serves per-family span
// trees in both text and JSON, correlated with the access log by
// request ID, with the per-layer facade/engine spans visible.
func TestDebugTraces(t *testing.T) {
	ts, _ := testServer(t)
	drive(t, ts, "/search?q=mining", "/search?q=ownership", "/works/1", "/authors?prefix=le")

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"=== GET /search ===",
		"=== GET /works/{id} ===",
		"facade.search",
		"epoch=",
		"engine.title_scan",
		"http.encode",
		"id=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/debug/traces lacks %q:\n%s", want, out)
		}
	}

	// JSON form decodes into the exported snapshot type and records the
	// route pattern as the op family.
	var snap []trace.FamilySnapshot
	if code := getJSON(t, ts.URL+"/debug/traces?format=json", &snap); code != 200 {
		t.Fatalf("json status %d", code)
	}
	families := map[string]trace.FamilySnapshot{}
	for _, f := range snap {
		families[f.Family] = f
	}
	search, ok := families["GET /search"]
	if !ok {
		t.Fatalf("no GET /search family in %v", families)
	}
	if len(search.Recent) != 2 || len(search.Slowest) != 2 {
		t.Errorf("search rings: recent=%d slowest=%d, want 2/2", len(search.Recent), len(search.Slowest))
	}
	for _, td := range search.Slowest {
		if td.ID == "" {
			t.Error("trace missing request-ID correlation")
		}
		if td.DurNS <= 0 {
			t.Error("trace has no duration")
		}
	}

	// Every family keeps a bounded, slowest-first ring of timed traces,
	// and a read and a write family both carry span trees below the root.
	resp, err = http.Post(ts.URL+"/works", "application/json",
		strings.NewReader(`{"title":"Traced Write","citation":"91:1 (1989)","authors":["Writer, Trace"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /works status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/debug/traces?format=json", &snap); code != 200 {
		t.Fatalf("json status %d", code)
	}
	withSpans := map[string]bool{}
	for _, fam := range snap {
		if len(fam.Slowest) == 0 || len(fam.Slowest) > trace.DefaultRingSize {
			t.Errorf("family %s kept %d slowest traces, want 1..%d", fam.Family, len(fam.Slowest), trace.DefaultRingSize)
		}
		for i, td := range fam.Slowest {
			if td.DurNS <= 0 {
				t.Errorf("family %s trace has no duration", fam.Family)
			}
			if i > 0 && td.DurNS > fam.Slowest[i-1].DurNS {
				t.Errorf("family %s slowest ring is not slowest-first", fam.Family)
			}
			if len(td.Root.Children) > 0 {
				withSpans[fam.Family] = true
			}
		}
	}
	for _, fam := range []string{"GET /search", "POST /works"} {
		if !withSpans[fam] {
			t.Errorf("no %s trace carries a span tree", fam)
		}
	}
}

// TestDebugTracesFilters: family substring and min-duration filters
// narrow the output; a bad min is a 400.
func TestDebugTracesFilters(t *testing.T) {
	ts, _ := testServer(t)
	drive(t, ts, "/search?q=mining", "/works/1")

	resp, err := http.Get(ts.URL + "/debug/traces?family=search")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	if !strings.Contains(out, "GET /search") || strings.Contains(out, "GET /works") {
		t.Errorf("family filter leaked:\n%s", out)
	}

	// An absurd min filters everything out.
	resp, err = http.Get(ts.URL + "/debug/traces?min=10m")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "no traces retained") {
		t.Errorf("min=10m still shows traces:\n%s", body)
	}

	if code := getJSON(t, ts.URL+"/debug/traces?min=fast", nil); code != 400 {
		t.Errorf("bad min duration status = %d", code)
	}
}

// TestTraceLayerBreakdown: in the captured tree for a search request,
// the root's direct children (facade op + response encoding) must
// account for the bulk of the request — the acceptance bar for "the
// per-layer breakdown explains the request".
func TestTraceLayerBreakdown(t *testing.T) {
	ts, _ := testServer(t)
	drive(t, ts, "/search?q=mining+or+ownership")

	var snap []trace.FamilySnapshot
	if code := getJSON(t, ts.URL+"/debug/traces?format=json", &snap); code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, fam := range snap {
		if fam.Family != "GET /search" {
			continue
		}
		td := fam.Slowest[0]
		var children int64
		for _, c := range td.Root.Children {
			children += c.DurNS
		}
		if children > td.Root.DurNS {
			t.Errorf("children (%dns) exceed root (%dns)", children, td.Root.DurNS)
		}
		// The spans must nest: every recorded child ends within the root.
		for _, c := range td.Root.Children {
			if c.OffsetNS+c.DurNS > td.Root.DurNS {
				t.Errorf("span %s (offset %d + dur %d) outlives root (%d)",
					c.Name, c.OffsetNS, c.DurNS, td.Root.DurNS)
			}
		}
		// The handler span makes the root's direct breakdown complete:
		// everything but middleware glue lands inside it, and the facade
		// and encode spans nest one level down.
		if len(td.Root.Children) != 1 || td.Root.Children[0].Name != "http.handler" {
			t.Fatalf("root children = %+v, want one http.handler span", td.Root.Children)
		}
		handler := td.Root.Children[0]
		var names []string
		for _, c := range handler.Children {
			names = append(names, c.Name)
		}
		want := map[string]bool{"facade.search": false, "http.encode": false}
		for _, n := range names {
			if _, ok := want[n]; ok {
				want[n] = true
			}
		}
		for n, seen := range want {
			if !seen {
				t.Errorf("http.handler lacks %q child (has %v)", n, names)
			}
		}
		return
	}
	t.Fatal("no GET /search family captured")
}

// TestCanceledRequestIs499: a request whose context is already gone
// when the handler runs is aborted with the client-closed-request
// status and counted under the "canceled" label, not an error code.
func TestCanceledRequestIs499(t *testing.T) {
	ix := openIndex(t)
	reg := obs.NewRegistry()
	h := New(ix, Config{Registry: reg}).Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/search?q=mining", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `authdex_http_requests_total{route="GET /search",code="canceled"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, sb.String())
	}
	if strings.Contains(sb.String(), `code="499"`) {
		t.Error(`canceled request leaked a code="499" series`)
	}
}

// TestCanceledRenderAborts: the render endpoint checks the context
// between sections, so a disconnect stops the (potentially huge) body
// mid-stream instead of rendering it all.
func TestCanceledRenderAborts(t *testing.T) {
	ix := openIndex(t)
	h := New(ix, Config{Registry: obs.NewRegistry()}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/index?format=text", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Errorf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
}

// cancelOnWrite cancels the request it records on its first write: a
// client that hangs up once the body has started.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.cancel()
	return c.ResponseRecorder.Write(p)
}

// TestCanceledTitlesStopMidRender: GET /titles renders under the
// request context, so a client that hangs up after the first flushed
// page gets no more of the index, and no error body after it.
func TestCanceledTitlesStopMidRender(t *testing.T) {
	ix := openIndex(t)
	var batch []authorindex.Work
	for _, w := range authorindex.GenerateCorpus(authorindex.CorpusConfig{Seed: 1, Works: 2000}) {
		w.ID = 0
		batch = append(batch, *w)
	}
	if _, err := ix.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	var full strings.Builder
	if err := ix.RenderTitleIndex(&full, authorindex.RenderOptions{Format: authorindex.Text}); err != nil {
		t.Fatal(err)
	}
	h := New(ix, Config{Registry: obs.NewRegistry()}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelOnWrite{httptest.NewRecorder(), cancel}
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/titles", nil).WithContext(ctx))
	body := rec.Body.String()
	if rec.Code != http.StatusOK || len(body) == 0 || len(body) >= full.Len() || !strings.HasPrefix(full.String(), body) {
		t.Errorf("hung-up /titles: status %d and %d of %d bytes, want 200 and a strict prefix of the index",
			rec.Code, len(body), full.Len())
	}
}

// TestTraceSampling: with SampleEvery configured, the recent ring only
// admits a fraction of sub-threshold requests while the slowest ring
// still sees everything.
func TestTraceSampling(t *testing.T) {
	ix := openIndex(t)
	ts := httptest.NewServer(New(ix, Config{Registry: obs.NewRegistry(), TraceSampleEvery: 8}).Handler())
	defer ts.Close()
	for i := 0; i < 16; i++ {
		drive(t, ts, "/healthz")
	}
	var snap []trace.FamilySnapshot
	if code := getJSON(t, ts.URL+"/debug/traces?format=json&family=healthz", &snap); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(snap) != 1 {
		t.Fatalf("families = %d", len(snap))
	}
	if got := len(snap[0].Recent); got != 2 {
		t.Errorf("recent admitted %d of 16 at 1-in-8 sampling, want 2", got)
	}
	if len(snap[0].Slowest) == 0 {
		t.Error("slowest ring empty despite traffic")
	}
}
