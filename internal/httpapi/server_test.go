package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	authorindex "repro"
	"repro/internal/obs"
)

// testServer builds the standard three-work fixture and serves it
// through the full Handler — middleware included — on its own registry
// so metric assertions never see another test's traffic.
func testServer(t *testing.T) (*httptest.Server, *authorindex.Index) {
	ts, ix, _ := testServerReg(t)
	return ts, ix
}

func testServerReg(t *testing.T) (*httptest.Server, *authorindex.Index, *obs.Registry) {
	t.Helper()
	ix, err := authorindex.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	add := func(title, cite string, headings ...string) {
		w := authorindex.Work{Title: title}
		if w.Citation, err = authorindex.ParseCitation(cite); err != nil {
			t.Fatal(err)
		}
		for _, h := range headings {
			a, err := authorindex.ParseAuthor(h)
			if err != nil {
				t.Fatal(err)
			}
			w.Authors = append(w.Authors, a)
		}
		if _, err := ix.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	add("Strip Mining and Reclamation", "75:319 (1973)", "Cardi, Vincent P.")
	add("Coalbed Methane Ownership", "94:563 (1992)", "Lewin, Jeff L.", "Peng, Syd S.")
	ws := authorindex.Work{
		Title:    "Classified Work",
		Citation: authorindex.Citation{Volume: 80, Page: 1, Year: 1977},
		Authors:  []authorindex.Author{{Family: "Filed", Given: "Under S."}},
		Subjects: []string{"Mining Law"},
	}
	if _, err := ix.Add(ws); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(ix, Config{Registry: reg}).Handler())
	t.Cleanup(ts.Close)
	return ts, ix, reg
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServeStats(t *testing.T) {
	ts, _ := testServer(t)
	var st authorindex.Stats
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.Works != 3 || st.Authors != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServeAuthors(t *testing.T) {
	ts, _ := testServer(t)
	var entries []struct {
		Heading string `json:"heading"`
		Works   []struct {
			Title string `json:"title"`
		} `json:"works"`
	}
	if code := getJSON(t, ts.URL+"/authors?prefix=le", &entries); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(entries) != 1 || entries[0].Heading != "Lewin, Jeff L." {
		t.Fatalf("entries = %+v", entries)
	}
	if len(entries[0].Works) != 1 {
		t.Errorf("works = %+v", entries[0].Works)
	}
}

func TestServeAuthorByHeading(t *testing.T) {
	ts, _ := testServer(t)
	var entry struct {
		Heading string `json:"heading"`
	}
	url := ts.URL + "/authors/" + strings.ReplaceAll("Cardi, Vincent P.", " ", "%20")
	if code := getJSON(t, url, &entry); code != 200 {
		t.Fatalf("status %d", code)
	}
	if entry.Heading != "Cardi, Vincent P." {
		t.Errorf("heading = %q", entry.Heading)
	}
	if code := getJSON(t, ts.URL+"/authors/Nobody,%20Known", nil); code != 404 {
		t.Errorf("missing author status = %d", code)
	}
}

func TestServeWork(t *testing.T) {
	ts, _ := testServer(t)
	var w struct {
		Title   string   `json:"title"`
		Authors []string `json:"authors"`
	}
	if code := getJSON(t, ts.URL+"/works/2", &w); code != 200 {
		t.Fatalf("status %d", code)
	}
	if w.Title != "Coalbed Methane Ownership" || len(w.Authors) != 2 {
		t.Errorf("work = %+v", w)
	}
	if code := getJSON(t, ts.URL+"/works/999", nil); code != 404 {
		t.Errorf("missing work status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/works/abc", nil); code != 400 {
		t.Errorf("bad id status = %d", code)
	}
}

func TestServeSearchYearsVolume(t *testing.T) {
	ts, _ := testServer(t)
	var works []struct {
		Title string `json:"title"`
	}
	if code := getJSON(t, ts.URL+"/search?q=reclamation", &works); code != 200 || len(works) != 1 {
		t.Errorf("search: code=%d works=%+v", code, works)
	}
	if code := getJSON(t, ts.URL+"/search", nil); code != 400 {
		t.Errorf("empty search status = %d", code)
	}
	works = nil
	if code := getJSON(t, ts.URL+"/years?from=1990&to=1995", &works); code != 200 || len(works) != 1 {
		t.Errorf("years: code=%d works=%+v", code, works)
	}
	if code := getJSON(t, ts.URL+"/years?from=x&to=y", nil); code != 400 {
		t.Errorf("bad years status = %d", code)
	}
	works = nil
	if code := getJSON(t, ts.URL+"/volume?v=75", &works); code != 200 || len(works) != 1 {
		t.Errorf("volume: code=%d works=%+v", code, works)
	}
}

// TestServeIntParamNormalization: every bad shape of a required integer
// parameter — missing, non-numeric, empty, trailing garbage, overflow —
// normalizes to one 400 whose message names the offending parameter,
// on both endpoints that share the helper.
func TestServeIntParamNormalization(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		name     string
		path     string
		wantCode int
		wantMsg  string
	}{
		{"years missing from", "/years?to=1995", 400, "missing from parameter"},
		{"years missing to", "/years?from=1990", 400, "missing to parameter"},
		{"years missing both", "/years", 400, "missing from parameter"},
		{"years malformed from", "/years?from=abc&to=1995", 400, `from must be an integer, got "abc"`},
		{"years malformed to", "/years?from=1990&to=19x5", 400, `to must be an integer, got "19x5"`},
		{"years float from", "/years?from=1990.5&to=1995", 400, `from must be an integer`},
		{"years overflow", "/years?from=99999999999999999999&to=1995", 400, "from must be an integer"},
		{"volume missing v", "/volume", 400, "missing v parameter"},
		{"volume malformed v", "/volume?v=vii", 400, `v must be an integer, got "vii"`},
		{"volume empty v", "/volume?v=", 400, "missing v parameter"},
		{"years ok negative", "/years?from=-1&to=1995", 200, ""},
		{"volume ok", "/volume?v=75", 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body := make([]byte, 4096)
			n, _ := resp.Body.Read(body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("GET %s: status %d, want %d (body %q)", tc.path, resp.StatusCode, tc.wantCode, body[:n])
			}
			if tc.wantMsg != "" && !strings.Contains(string(body[:n]), tc.wantMsg) {
				t.Errorf("GET %s: body %q lacks %q", tc.path, body[:n], tc.wantMsg)
			}
		})
	}
}

func TestServeIndexAndTitles(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/index?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "AUTHOR INDEX") {
		t.Error("index endpoint missing running head")
	}
	resp, err = http.Get(ts.URL + "/titles?format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "Coalbed Methane Ownership\t") {
		t.Errorf("titles endpoint output: %q", body[:n])
	}
	if code := getJSON(t, ts.URL+"/index?format=yaml", nil); code != 400 {
		t.Errorf("bad format status = %d", code)
	}
	// HTML format sets the right content type.
	resp, err = http.Get(ts.URL + "/index?format=html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("html content type = %q", ct)
	}
	// Title index rejects CSV.
	if code := getJSON(t, ts.URL+"/titles?format=csv", nil); code != 400 {
		t.Errorf("titles csv status = %d", code)
	}
}

func TestServeSubjects(t *testing.T) {
	ts, _ := testServer(t)
	var subs []authorindex.SubjectCount
	if code := getJSON(t, ts.URL+"/subjects", &subs); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(subs) != 1 || subs[0].Subject != "Mining Law" || subs[0].Works != 1 {
		t.Fatalf("subjects = %+v", subs)
	}
	var works []struct {
		Title string `json:"title"`
	}
	if code := getJSON(t, ts.URL+"/subjects/Mining%20Law", &works); code != 200 || len(works) != 1 {
		t.Errorf("by subject: code=%d works=%+v", code, works)
	}
	if code := getJSON(t, ts.URL+"/subjects/Nothing%20Here", nil); code != 404 {
		t.Errorf("missing subject status = %d", code)
	}
}

func TestServeMetricsSummary(t *testing.T) {
	ts, _ := testServer(t)
	var sum authorindex.MetricsSummary
	if code := getJSON(t, ts.URL+"/metrics", &sum); code != 200 {
		t.Fatalf("status %d", code)
	}
	// 3 works, 4 headings; the two-author work contributes 2 postings.
	if sum.Works != 3 || sum.Authors != 4 || sum.Postings != 4 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.SoloWorks != 2 || sum.Pairs != 1 || sum.Scheme != "harmonic" {
		t.Errorf("summary = %+v", sum)
	}
}

func TestServeRank(t *testing.T) {
	ts, ix := testServer(t)
	var top []authorindex.AuthorMetrics
	if code := getJSON(t, ts.URL+"/rank?by=weighted&limit=2", &top); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(top) != 2 {
		t.Fatalf("rank returned %d entries, want 2", len(top))
	}
	// The solo authors (credit 1.0) outrank the co-authors of the
	// two-author work.
	if top[0].Weighted != 1 || top[1].Weighted != 1 {
		t.Errorf("top credit = %v, %v", top[0].Weighted, top[1].Weighted)
	}
	// HTTP results must match the facade the CLI uses.
	facade := ix.TopAuthors(authorindex.ByWeighted, 2)
	for i := range top {
		if top[i].Heading != facade[i].Heading || top[i].Weighted != facade[i].Weighted {
			t.Errorf("rank[%d] = %+v, facade %+v", i, top[i], facade[i])
		}
	}
	// Default key is weighted; bad keys are 400.
	var dflt []authorindex.AuthorMetrics
	if code := getJSON(t, ts.URL+"/rank", &dflt); code != 200 || len(dflt) == 0 {
		t.Errorf("default rank: code=%d len=%d", code, len(dflt))
	}
	if code := getJSON(t, ts.URL+"/rank?by=citations", nil); code != 400 {
		t.Errorf("bad rank key status = %d", code)
	}
	// h-index ranking works end to end.
	var byH []authorindex.AuthorMetrics
	if code := getJSON(t, ts.URL+"/rank?by=h&limit=10", &byH); code != 200 || len(byH) == 0 {
		t.Errorf("rank by h: code=%d len=%d", code, len(byH))
	}
}

func TestServeAuthorMetrics(t *testing.T) {
	ts, _ := testServer(t)
	var m authorindex.AuthorMetrics
	url := ts.URL + "/authors/" + strings.ReplaceAll("Lewin, Jeff L.", " ", "%20") + "/metrics"
	if code := getJSON(t, url, &m); code != 200 {
		t.Fatalf("status %d", code)
	}
	if m.Heading != "Lewin, Jeff L." || m.Works != 1 || m.Collaborators != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.TopCollaborators[0].Heading != "Peng, Syd S." {
		t.Errorf("collaborators = %+v", m.TopCollaborators)
	}
	if m.Weighted >= 1 || m.Weighted <= 0 {
		t.Errorf("first-author weighted credit = %v, want in (0, 1)", m.Weighted)
	}
	if code := getJSON(t, ts.URL+"/authors/Nobody,%20Known/metrics", nil); code != 404 {
		t.Errorf("missing author status = %d", code)
	}
}

// TestServeLimitClamping exercises the shared clamp across handlers:
// negative and garbage limits fall back to the default, zero and huge
// values clamp to MaxLimit instead of going unbounded.
func TestServeLimitClamping(t *testing.T) {
	ts, _ := testServer(t)
	for _, q := range []string{"limit=-5", "limit=abc", "n=-1", "limit=0", "limit=999999999"} {
		var top []authorindex.AuthorMetrics
		if code := getJSON(t, ts.URL+"/rank?"+q, &top); code != 200 {
			t.Errorf("rank?%s status = %d", q, code)
		}
		if len(top) == 0 || len(top) > authorindex.MaxLimit {
			t.Errorf("rank?%s returned %d entries", q, len(top))
		}
		var entries []Entry
		if code := getJSON(t, ts.URL+"/authors?"+strings.ReplaceAll(q, "limit", "n"), &entries); code != 200 {
			t.Errorf("authors?%s status = %d", q, code)
		}
	}
}

func TestServeAddWork(t *testing.T) {
	ts, ix := testServer(t)
	body := `{"title":"Posted Work","citation":"90:1 (1988)","authors":["Poster, Hyper T."]}`
	resp, err := http.Post(ts.URL+"/works", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]authorindex.WorkID
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if w, ok := ix.Get(out["id"]); !ok || w.Title != "Posted Work" {
		t.Errorf("posted work = %v,%v", w, ok)
	}
	// Invalid bodies.
	for _, bad := range []string{
		`not json`,
		`{"title":"x","citation":"nope","authors":["A, B."]}`,
		`{"title":"x","citation":"90:1 (1988)","authors":[]}`,
		`{"title":"","citation":"90:1 (1988)","authors":["A, B."]}`,
	} {
		resp, err := http.Post(ts.URL+"/works", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			t.Errorf("bad body accepted: %s", bad)
		}
	}
}

func TestServeAddWorksBatch(t *testing.T) {
	ts, ix := testServer(t)
	before := ix.Len()
	body := `[
		{"title":"Batched One","citation":"91:1 (1989)","authors":["Pipeline, Walter A."]},
		{"title":"Batched Two","citation":"91:2 (1989)","authors":["Pipeline, Walter A.","Commit, Grace"]},
		{"title":"Batched Three","citation":"91:3 (1989)","authors":["Commit, Grace"]}
	]`
	resp, err := http.Post(ts.URL+"/works:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string][]authorindex.WorkID
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ids := out["ids"]
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	for i, want := range []string{"Batched One", "Batched Two", "Batched Three"} {
		if w, ok := ix.Get(ids[i]); !ok || w.Title != want {
			t.Errorf("ids[%d]: got %v,%v want %q", i, w, ok, want)
		}
	}
	if ix.Len() != before+3 {
		t.Errorf("Len = %d, want %d", ix.Len(), before+3)
	}
	if st := ix.Stats(); st.BatchesCommitted == 0 {
		t.Error("batch endpoint did not group-commit")
	}

	// One bad work rejects the whole batch, atomically.
	mid := ix.Len()
	bad := `[
		{"title":"Fine","citation":"91:4 (1989)","authors":["Pipeline, Walter A."]},
		{"title":"","citation":"91:5 (1989)","authors":["Pipeline, Walter A."]}
	]`
	resp, err = http.Post(ts.URL+"/works:batch", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		t.Error("batch with invalid work accepted")
	}
	if ix.Len() != mid {
		t.Errorf("failed batch changed Len: %d -> %d", mid, ix.Len())
	}

	// Empty and malformed bodies.
	for _, b := range []string{`[]`, `not json`, `{"title":"obj not array"}`} {
		resp, err := http.Post(ts.URL+"/works:batch", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			t.Errorf("bad batch body accepted: %s", b)
		}
	}
}

func TestServeGraphSummary(t *testing.T) {
	ts, _ := testServer(t)
	var s authorindex.GraphSummary
	if code := getJSON(t, ts.URL+"/graph", &s); code != 200 {
		t.Fatalf("status %d", code)
	}
	// Fixture: Cardi solo, Lewin+Peng shared, Filed solo.
	if s.Nodes != 4 || s.Edges != 1 || s.Components != 3 || s.LargestComponent != 2 {
		t.Errorf("summary = %+v", s)
	}
	if len(s.TopCentral) == 0 {
		t.Error("no central authors in summary")
	}
}

func TestServeGraphPath(t *testing.T) {
	ts, _ := testServer(t)
	var p Path
	url := ts.URL + "/graph/path?from=Lewin,+Jeff+L.&to=Peng,+Syd+S."
	if code := getJSON(t, url, &p); code != 200 {
		t.Fatalf("status %d", code)
	}
	if p.Distance != 1 || len(p.Path) != 2 || p.Path[1] != "Peng, Syd S." {
		t.Errorf("path = %+v", p)
	}
	if code := getJSON(t, ts.URL+"/graph/path?from=Lewin,+Jeff+L.&to=Cardi,+Vincent+P.", nil); code != 404 {
		t.Errorf("disconnected pair gave %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/graph/path?from=Lewin,+Jeff+L.", nil); code != 400 {
		t.Errorf("missing to gave %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/graph/path?from=Nobody,+X.&to=Peng,+Syd+S.", nil); code != 404 {
		t.Errorf("unknown heading gave %d, want 404", code)
	}
}

func TestServeGraphCentral(t *testing.T) {
	ts, _ := testServer(t)
	var cs []authorindex.CentralAuthor
	if code := getJSON(t, ts.URL+"/graph/central?limit=2", &cs); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(cs) != 2 {
		t.Fatalf("got %d central authors, want 2", len(cs))
	}
	// The collaborating pair outranks the isolated authors.
	for _, c := range cs {
		if c.Heading != "Lewin, Jeff L." && c.Heading != "Peng, Syd S." {
			t.Errorf("unexpected central author %q", c.Heading)
		}
	}
}

func TestServeRankByCentral(t *testing.T) {
	ts, _ := testServer(t)
	var ms []authorindex.AuthorMetrics
	if code := getJSON(t, ts.URL+"/rank?by=central&limit=1", &ms); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(ms) != 1 {
		t.Fatalf("rank returned %d entries", len(ms))
	}
	if h := ms[0].Heading; h != "Lewin, Jeff L." && h != "Peng, Syd S." {
		t.Errorf("top central = %q", h)
	}
}

// TestWriteBodyCapped: a write body one byte past the cap is refused
// with 413 before it is buffered whole, on both write routes, and the
// index is untouched.
func TestWriteBodyCapped(t *testing.T) {
	ix, err := authorindex.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	h := New(ix, Config{Registry: obs.NewRegistry()}).Handler()
	for _, route := range []struct{ path, open, close string }{
		{"/works", `{"title":"`, `"}`},
		{"/works:batch", `[{"title":"`, `"}]`},
	} {
		pad := int64(maxBody + 1 - len(route.open) - len(route.close))
		body := io.MultiReader(strings.NewReader(route.open), &filler{n: pad}, strings.NewReader(route.close))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413: %s", route.path, maxBody+1, rec.Code, rec.Body)
		}
	}
	if ix.Len() != 0 {
		t.Errorf("oversize bodies changed the index: Len = %d", ix.Len())
	}
}

// filler reads n bytes of 'a'.
type filler struct{ n int64 }

func (f *filler) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.n {
		p = p[:f.n]
	}
	for i := range p {
		p[i] = 'a'
	}
	f.n -= int64(len(p))
	return len(p), nil
}
