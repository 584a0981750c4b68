package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	authorindex "repro"
	"repro/internal/collate"
	"repro/internal/httpapi"
	"repro/internal/inverted"
	"repro/internal/model"
)

// opKind names one request shape of the workloads.
type opKind int

const (
	opSearch opKind = iota
	opAuthors
	opGet
	opYears
	opRank
	opSubjects
	opAdd
	opBatch
	opScrape
	numOpKinds
)

var opNames = [numOpKinds]string{"search", "authors", "get", "years", "rank", "subjects", "add", "batch", "scrape"}

func (k opKind) String() string { return opNames[k] }

// readKinds are the read routes of the browse mix, in mix order.
var readKinds = []opKind{opSearch, opAuthors, opGet, opYears, opRank, opSubjects}

// readMix is the cumulative share of each read kind: search 33%, author
// prefix 22%, get 22%, years 11%, rank 6%, subjects 6% — the read mix
// of the loadgen command, renormalized.
var readMix = [...]float64{0.33, 0.55, 0.77, 0.88, 0.94, 1.0}

// Request limits the plan uses; the oracle checks results against them.
const (
	listLimit = 20
	rankLimit = 10
)

// op is one planned request plus what the oracle needs to check its
// response.
type op struct {
	Kind   opKind
	Method string
	Path   string
	Body   []byte

	Term     string        // search: the folded query term
	Heading  string        // authors: the heading the page must start at
	After    string        // authors: the cursor, the heading filed before it
	Want     *httpapi.Work // get: the stored work, in wire form
	From, To int           // years: the inclusive year range
	Limit    int           // list routes: the requested limit
	Works    []*model.Work // add, batch: the works posted, in order
}

// keys are the values reads draw from, taken from the stored corpus.
// Search terms are drawn per occurrence, so frequent terms come up as
// often as they occur, and work IDs through a Zipf law over a seeded
// permutation. Readers open the index at headings drawn uniformly; the
// most prolific heading, which holds about a seventh of all authorships
// under the corpus's Zipf skew, is opened a fixed number of times instead
// (see openPlan), so its multi-megabyte page weighs the same in every
// seed's run.
type keys struct {
	terms    []string
	headings []string          // by works filed, most first
	before   map[string]string // heading -> the heading filed just before it
	ids      []model.WorkID
	minYear  int
	maxYear  int
	byID     map[model.WorkID]*model.Work
}

func newKeys(stored []*model.Work, coll collate.Options) *keys {
	k := &keys{byID: make(map[model.WorkID]*model.Work, len(stored))}
	k.minYear, k.maxYear = stored[0].Citation.Year, stored[0].Citation.Year
	filed := make(map[string][]byte)
	works := make(map[string]int)
	for _, w := range stored {
		k.byID[w.ID] = w
		k.ids = append(k.ids, w.ID)
		k.minYear = min(k.minYear, w.Citation.Year)
		k.maxYear = max(k.maxYear, w.Citation.Year)
		for _, t := range inverted.Tokenize(w.Title) {
			if len(t) > 4 {
				k.terms = append(k.terms, t)
			}
		}
		for _, a := range w.Authors {
			h := a.Display()
			if _, ok := filed[h]; !ok {
				filed[h] = collate.KeyAuthor(a, coll)
			}
			works[h]++
		}
	}
	order := make([]string, 0, len(filed))
	for h := range filed {
		order = append(order, h)
	}
	sort.Slice(order, func(i, j int) bool { return bytes.Compare(filed[order[i]], filed[order[j]]) < 0 })
	k.before = make(map[string]string, len(order))
	for i, h := range order {
		if i > 0 {
			k.before[h] = order[i-1]
		}
	}
	k.headings = append([]string(nil), order...)
	sort.SliceStable(k.headings, func(i, j int) bool { return works[k.headings[i]] > works[k.headings[j]] })
	return k
}

// works returns the stored works in ID order.
func (k *keys) works() []*model.Work {
	out := make([]*model.Work, len(k.ids))
	for i, id := range k.ids {
		out[i] = k.byID[id]
	}
	return out
}

// heading draws the heading a reader opens the index at.
func (k *keys) heading(r *rand.Rand) string {
	return k.headings[r.Intn(len(k.headings))]
}

// planner draws a workload's operations from one seeded stream.
type planner struct {
	r      *rand.Rand
	k      *keys
	zipfID *rand.Zipf
	perm   []int
	stream []*model.Work // works not yet posted
}

func newPlanner(seed int64, k *keys, stream []*model.Work) *planner {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &planner{
		r:      r,
		k:      k,
		zipfID: rand.NewZipf(r, 1.1, 1, uint64(len(k.ids)-1)),
		perm:   r.Perm(len(k.ids)),
		stream: stream,
	}
}

// read draws one read from the browse mix.
func (p *planner) read() *op {
	x := p.r.Float64()
	kind := readKinds[len(readKinds)-1]
	for i, c := range readMix {
		if x < c {
			kind = readKinds[i]
			break
		}
	}
	switch kind {
	case opSearch:
		t := p.k.terms[p.r.Intn(len(p.k.terms))]
		return &op{Kind: opSearch, Method: "GET", Path: fmt.Sprintf("/search?q=%s&limit=%d", url.QueryEscape(t), listLimit), Term: t, Limit: listLimit}
	case opAuthors:
		return p.pageAt(p.k.heading(p.r))
	case opGet:
		id := p.k.ids[p.perm[p.zipfID.Uint64()]]
		want := wireWork(p.k.byID[id])
		return &op{Kind: opGet, Method: "GET", Path: fmt.Sprintf("/works/%d", id), Want: &want}
	case opYears:
		from := p.k.minYear + p.r.Intn(p.k.maxYear-p.k.minYear+1)
		return &op{Kind: opYears, Method: "GET", Path: fmt.Sprintf("/years?from=%d&to=%d&limit=%d", from, from+2, listLimit), From: from, To: from + 2, Limit: listLimit}
	case opRank:
		return &op{Kind: opRank, Method: "GET", Path: fmt.Sprintf("/rank?by=weighted&limit=%d", rankLimit), Limit: rankLimit}
	default:
		return &op{Kind: opSubjects, Method: "GET", Path: "/subjects"}
	}
}

// pageAt opens the printed index at heading h: the page of headings
// from h on, via the cursor of the heading filed before it (the first
// heading has none, and an empty prefix starts there too).
func (p *planner) pageAt(h string) *op {
	after := p.k.before[h]
	q := "prefix="
	if after != "" {
		q = "after=" + url.QueryEscape(after)
	}
	return &op{Kind: opAuthors, Method: "GET", Path: fmt.Sprintf("/authors?%s&limit=%d", q, listLimit), Heading: h, After: after, Limit: listLimit}
}

// take removes the next n works from the stream; false when it ran dry.
func (p *planner) take(n int) ([]*model.Work, bool) {
	if len(p.stream) < n {
		return nil, false
	}
	ws := p.stream[:n]
	p.stream = p.stream[n:]
	return ws, true
}

// add plans a POST /works of the next streamed work.
func (p *planner) add() (*op, bool) {
	ws, ok := p.take(1)
	if !ok {
		return nil, false
	}
	body, err := json.Marshal(wireWork(postable(ws[0])))
	if err != nil {
		panic(err) // a wire work always encodes
	}
	return &op{Kind: opAdd, Method: "POST", Path: "/works", Body: body, Works: ws}, true
}

// batch plans a POST /works:batch of the next n streamed works.
func (p *planner) batch(n int) (*op, bool) {
	ws, ok := p.take(n)
	if !ok {
		return nil, false
	}
	wire := make([]httpapi.Work, len(ws))
	for i, w := range ws {
		wire[i] = wireWork(postable(w))
	}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err)
	}
	return &op{Kind: opBatch, Method: "POST", Path: "/works:batch", Body: body, Works: ws}, true
}

// openPlan is the schedule of an open-loop run of n operations: each is
// a write with probability writeFrac (80% single adds, 20% batches of
// five) and otherwise a read from the browse mix. On top of that, `heavy`
// times a run the index is opened at its most prolific heading — a
// multi-megabyte page whose cost would otherwise depend on whether a seed
// happened to draw it — and `scrapes` GET /debug/metrics are sent, each
// kind evenly spaced and the two kinds apart.
func (p *planner) openPlan(n int, writeFrac float64, heavy, scrapes int) ([]*op, error) {
	plan := make([]*op, n)
	for i := range plan {
		var o *op
		ok := true
		if writeFrac > 0 && p.r.Float64() < writeFrac {
			if p.r.Float64() < 0.8 {
				o, ok = p.add()
			} else {
				o, ok = p.batch(5)
			}
		} else {
			o = p.read()
		}
		if !ok {
			return nil, fmt.Errorf("plan: stream of %d works ran dry at op %d", len(p.stream), i)
		}
		plan[i] = o
	}
	for h := 0; h < heavy; h++ {
		plan[(4*h+1)*n/(4*heavy)] = p.pageAt(p.k.headings[0])
	}
	for s := 0; s < scrapes; s++ {
		plan[(4*s+3)*n/(4*scrapes)] = &op{Kind: opScrape, Method: "GET", Path: "/debug/metrics"}
	}
	return plan, nil
}

// wireWork is a work in the HTTP wire form, without its ID when it has
// none yet.
func wireWork(w *model.Work) httpapi.Work {
	out := httpapi.Work{ID: w.ID, Title: w.Title, Kind: w.Kind.String(), Citation: w.Citation.String()}
	for _, a := range w.Authors {
		out.Authors = append(out.Authors, authorindex.FormatAuthor(a))
	}
	return out
}

// postable is the work as a writer sends it: the store assigns the ID.
func postable(w *model.Work) *model.Work {
	c := *w
	c.ID = 0
	return &c
}

func equalWire(a, b httpapi.Work) bool {
	return a.ID == b.ID && a.Title == b.Title && a.Kind == b.Kind &&
		a.Citation == b.Citation && strings.Join(a.Authors, "\x00") == strings.Join(b.Authors, "\x00")
}
