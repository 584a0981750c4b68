// Package metrics maintains per-author bibliometric statistics over the
// indexed corpus: work counts by kind and year, fractional and
// position-weighted authorship credit (Abbas-style counting schemes),
// an h-index-style productivity score over per-year output, and
// co-author collaboration degree, read from the coauthorship graph the
// engine owns.
//
// The engine keys its state by the graph's heading IDs, so the tracker
// has one ID space: each heading is interned once, to a dense uint32,
// and every counter is a column indexed by that ID. Works, first
// authorships and both credit totals are flat integer columns; the
// per-kind counts are a [model.KindCount]int32 per heading and the
// per-year counts a short (year, count) slice sorted by year. A ranked
// read is therefore one pass over a column, with heading strings read
// only to break ties and to build the returned snapshots. Every output
// is ordered by heading string, never by ID.
//
// The engine is incremental: Add and Remove update every statistic in
// O(authors-per-work) time with no dependence on corpus size, and a
// Remove exactly inverts the matching Add, so an incrementally
// maintained engine is indistinguishable from one rebuilt from scratch.
// Credit is accumulated in integer millionths of a work so that the
// guarantee holds bit-for-bit: integer addition is order-independent,
// where floating-point accumulation would drift with mutation order.
//
// The package consumes the corpus rather than building an index of it;
// the query engine owns one Engine and feeds it every mutation.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/topk"
)

// Scheme selects how one work's unit of credit is divided among its
// authors. Every scheme gives earlier positions at least as much weight
// as later ones and (up to integer rounding) sums to one per work.
type Scheme uint8

// Counting schemes, in the order of how steeply they favor the first
// author. Harmonic is the default and the scheme the bibliometrics
// literature most often recommends for position-weighted credit.
const (
	// Harmonic weights position i by 1/i, normalized: w_i = (1/i)/H(k).
	Harmonic Scheme = iota
	// Arithmetic (proportional) weights position i by k+1-i, normalized.
	Arithmetic
	// Geometric halves the weight at each position: w_i ∝ 2^(-i).
	Geometric
	// Fractional splits credit evenly: w_i = 1/k for all positions.
	Fractional
)

var schemeNames = [...]string{
	Harmonic:   "harmonic",
	Arithmetic: "arithmetic",
	Geometric:  "geometric",
	Fractional: "fractional",
}

// String names the scheme.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Valid reports whether s is a defined scheme.
func (s Scheme) Valid() bool { return int(s) < len(schemeNames) }

// ParseScheme converts a scheme name back into a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if n == strings.ToLower(name) {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("metrics: unknown scheme %q", name)
}

// RankKey selects the statistic TopAuthors orders by.
type RankKey uint8

// Ranking keys.
const (
	ByWorks RankKey = iota
	ByWeighted
	ByFractional
	ByHIndex
	ByCollaborators
	ByFirstAuthored
	// ByCentrality ranks by coauthorship-network PageRank. The query
	// layer resolves this key against the engine's graph; Engine's own
	// TopAuthors falls back to ByWorks ordering for it.
	ByCentrality
)

var rankNames = [...]string{
	ByWorks:         "works",
	ByWeighted:      "weighted",
	ByFractional:    "fractional",
	ByHIndex:        "h",
	ByCollaborators: "collabs",
	ByFirstAuthored: "first",
	ByCentrality:    "central",
}

// String names the rank key.
func (k RankKey) String() string {
	if int(k) < len(rankNames) {
		return rankNames[k]
	}
	return fmt.Sprintf("rankkey(%d)", uint8(k))
}

// ParseRankKey converts a rank-key name ("works", "weighted",
// "fractional", "h", "collabs", "first", "central") into a RankKey.
func ParseRankKey(name string) (RankKey, error) {
	switch strings.ToLower(name) {
	case "collaborators":
		return ByCollaborators, nil
	case "h-index", "hindex":
		return ByHIndex, nil
	case "centrality", "pagerank":
		return ByCentrality, nil
	}
	for i, n := range rankNames {
		if n == strings.ToLower(name) {
			return RankKey(i), nil
		}
	}
	return 0, fmt.Errorf("metrics: unknown rank key %q", name)
}

// Collaborator pairs a co-author heading with the number of shared works.
type Collaborator struct {
	Heading string `json:"heading"`
	Works   int    `json:"works"`
}

// AuthorMetrics is the full statistics snapshot for one heading. Credit
// values are in units of whole works (a solo article is worth 1.0).
type AuthorMetrics struct {
	Heading string `json:"heading"`
	// Works counts distinct works filed under the heading.
	Works int `json:"works"`
	// FirstAuthored counts works where this heading is listed first.
	FirstAuthored int `json:"firstAuthored"`
	// ByKind counts works per kind name.
	ByKind map[string]int `json:"byKind,omitempty"`
	// ByYear counts works per publication year; works with a zero or
	// negative (unknown) year are counted in Works but not here.
	ByYear map[int]int `json:"byYear,omitempty"`
	// Fractional is uniform 1/k credit summed over the author's works.
	Fractional float64 `json:"fractional"`
	// Weighted is position-weighted credit under the engine's Scheme.
	Weighted float64 `json:"weighted"`
	// HIndex is the productivity h-index over per-year output: the
	// largest h such that the author has h years with ≥ h works each.
	HIndex int `json:"hIndex"`
	// Collaborators counts distinct co-author headings.
	Collaborators int `json:"collaborators"`
	// TopCollaborators lists the most frequent co-authors, best first.
	TopCollaborators []Collaborator `json:"topCollaborators,omitempty"`
}

// Summary aggregates corpus-level collaboration statistics.
type Summary struct {
	Scheme   string `json:"scheme"`
	Authors  int    `json:"authors"`
	Works    int    `json:"works"`
	Postings int    `json:"postings"` // distinct author–work pairs
	// SoloWorks counts works with exactly one distinct heading.
	SoloWorks int `json:"soloWorks"`
	// Pairs counts distinct collaborating heading pairs.
	Pairs int `json:"pairs"`
	// MeanAuthorsPerWork is Postings / Works.
	MeanAuthorsPerWork float64 `json:"meanAuthorsPerWork"`
}

// topCollaborators caps the per-author co-author list in snapshots.
const topCollaborators = 5

// microUnit is the integer credit resolution: one work = 1e6 micro.
const microUnit = 1_000_000

// yearCount is one entry of a heading's per-year output.
type yearCount struct {
	year, works int32
}

// Engine is the incremental bibliometrics tracker. It owns the
// coauthorship graph, the one co-author structure: the graph interns
// headings, records which works are folded in and how many works each
// pair of headings shares, and the engine keeps only per-heading credit
// columns beside it, indexed by the graph's heading IDs. Mutations
// (Add, Remove, Rebuild) are not safe for concurrent use; the owning
// layer serializes them.
type Engine struct {
	scheme Scheme
	graph  *graph.Graph
	// authors is the graph's heading → ID map: the live headings.
	authors map[string]uint32

	// Credit columns, indexed by heading ID and all zero at a freed ID.
	works     []int32
	first     []int32
	fracMicro []int64
	wgtMicro  []int64
	byKind    [][model.KindCount]int32
	byYear    [][]yearCount // sorted by year; nil when empty

	postings int
	solo     int
	// dscratch is the reusable deltas buffer. Mutations are serialized
	// by the owning layer and no caller retains the slice past its call,
	// so one buffer suffices.
	dscratch []delta
}

// NewEngine returns an empty tracker using the given counting scheme,
// over an empty graph with the default damping factor. An invalid
// scheme falls back to Harmonic rather than silently zeroing every
// weight; callers that want an error should check Scheme.Valid.
func NewEngine(scheme Scheme) *Engine {
	if !scheme.Valid() {
		scheme = Harmonic
	}
	g := graph.New(0)
	return &Engine{scheme: scheme, graph: g, authors: g.HeadingIDs()}
}

// Weighting returns the scheme the engine divides credit with.
func (e *Engine) Weighting() Scheme { return e.scheme }

// Graph returns the coauthorship network the engine owns. Callers may
// read it and set its damping factor, but must not Add or Remove works
// on it directly: the engine's credit columns follow the graph's
// membership and IDs.
func (e *Engine) Graph() *graph.Graph { return e.graph }

// Len returns the number of tracked headings.
func (e *Engine) Len() int { return len(e.authors) }

// delta is the per-(work, heading) contribution, computed identically
// by Add and Remove so removal inverts addition exactly.
type delta struct {
	id        uint32
	first     bool
	fracMicro int64
	wgtMicro  int64
}

// deltas returns one entry per distinct heading among a work's author
// positions, given the heading ID at each, in first-position order. A
// heading listed at several positions earns the credit of each position
// but counts as one work. Positions the graph could not resolve
// (graph.NoID) earn nothing. Callers never retain the slice past their
// call.
func (e *Engine) deltas(ids []uint32) []delta {
	k := len(ids)
	out := e.dscratch[:0]
	for i, id := range ids {
		if id == graph.NoID {
			continue
		}
		j := slices.IndexFunc(out, func(d delta) bool { return d.id == id })
		if j < 0 {
			j = len(out)
			out = append(out, delta{id: id, first: i == 0})
		}
		out[j].fracMicro += microUnit / int64(k)
		out[j].wgtMicro += positionMicro(e.scheme, i+1, k)
	}
	e.dscratch = out
	return out
}

// positionMicro returns the credit, in micro-works, that position i
// (1-based) of k earns under scheme s. Deterministic in (s, i, k), so
// adds and removes of the same work always agree.
func positionMicro(s Scheme, i, k int) int64 {
	var w float64
	switch s {
	case Fractional:
		return microUnit / int64(k)
	case Harmonic:
		var h float64
		for j := 1; j <= k; j++ {
			h += 1 / float64(j)
		}
		w = (1 / float64(i)) / h
	case Arithmetic:
		w = float64(2*(k+1-i)) / float64(k*(k+1))
	case Geometric:
		// w_i = 2^(k-i)/(2^k - 1), written overflow-safe.
		w = math.Pow(0.5, float64(i)) / (1 - math.Pow(0.5, float64(k)))
	}
	return int64(math.Round(w * microUnit))
}

// Add folds w into the graph and every credit counter in
// O(len(w.Authors)²) time (the quadratic term is the graph's pairwise
// edge update; author lists are short). Adding an ID that is already
// tracked is a no-op; replace by Remove then Add.
func (e *Engine) Add(w *model.Work) {
	if ids, ok := e.graph.AddIDs(w); ok {
		e.credit(w, ids, 1)
	}
}

// Remove exactly inverts the Add of the same work. Removing an
// untracked ID is a no-op.
func (e *Engine) Remove(w *model.Work) {
	if ids, ok := e.graph.RemoveIDs(w); ok {
		e.credit(w, ids, -1)
	}
}

// credit adds (sign 1) or subtracts (sign -1) w's per-heading deltas,
// zeroing a heading's columns once it has no works left, as the graph
// frees its ID.
func (e *Engine) credit(w *model.Work, ids []uint32, sign int32) {
	ds := e.deltas(ids)
	for _, d := range ds {
		id := d.id
		for int(id) >= len(e.works) {
			e.works = append(e.works, 0)
			e.first = append(e.first, 0)
			e.fracMicro = append(e.fracMicro, 0)
			e.wgtMicro = append(e.wgtMicro, 0)
			e.byKind = append(e.byKind, [model.KindCount]int32{})
			e.byYear = append(e.byYear, nil)
		}
		if e.works[id] += sign; e.works[id] <= 0 {
			e.works[id], e.first[id], e.fracMicro[id], e.wgtMicro[id] = 0, 0, 0, 0
			e.byKind[id], e.byYear[id] = [model.KindCount]int32{}, nil
			continue
		}
		if d.first {
			e.first[id] += sign
		}
		if w.Kind.Valid() { // indexed works always are: Validate rejects others
			e.byKind[id][w.Kind] += sign
		}
		if y := w.Citation.Year; y > 0 {
			e.byYear[id] = bumpYear(e.byYear[id], int32(y), sign)
		}
		e.fracMicro[id] += int64(sign) * d.fracMicro
		e.wgtMicro[id] += int64(sign) * d.wgtMicro
	}
	e.postings += int(sign) * len(ds)
	if len(ds) == 1 {
		e.solo += int(sign)
	}
}

// bumpYear adds n to year's count in ys, inserting the year in order or
// dropping it once its count reaches zero.
func bumpYear(ys []yearCount, year, n int32) []yearCount {
	i, found := slices.BinarySearchFunc(ys, year, func(yc yearCount, y int32) int { return cmp.Compare(yc.year, y) })
	if !found {
		ys = slices.Insert(ys, i, yearCount{year: year})
	}
	if ys[i].works += n; ys[i].works <= 0 {
		if ys = slices.Delete(ys, i, i+1); len(ys) == 0 {
			ys = nil
		}
	}
	return ys
}

// Rebuild resets the engine and re-adds the corpus — the recovery path
// when incremental state is suspect. One pass folds each work into the
// graph, which memoizes heading construction across the whole corpus,
// and credits it under the IDs the graph assigned. A repeated work ID
// is folded in once.
func (e *Engine) Rebuild(works []*model.Work) {
	e.works, e.first, e.fracMicro, e.wgtMicro, e.byKind, e.byYear = nil, nil, nil, nil, nil, nil
	e.postings, e.solo = 0, 0
	e.graph.RebuildIDs(works, func(w *model.Work, ids []uint32) { e.credit(w, ids, 1) })
	e.authors = e.graph.HeadingIDs()
}

// Author returns the snapshot for one heading in Display form.
func (e *Engine) Author(heading string) (AuthorMetrics, bool) {
	id, ok := e.authors[heading]
	if !ok {
		return AuthorMetrics{}, false
	}
	return e.snapshot(id), true
}

// snapshot materializes one AuthorMetrics from the columns at id.
func (e *Engine) snapshot(id uint32) AuthorMetrics {
	row := e.graph.Row(id)
	m := AuthorMetrics{
		Heading:       e.graph.Heading(id),
		Works:         int(e.works[id]),
		FirstAuthored: int(e.first[id]),
		Fractional:    float64(e.fracMicro[id]) / microUnit,
		Weighted:      float64(e.wgtMicro[id]) / microUnit,
		HIndex:        hIndex(e.byYear[id]),
		Collaborators: len(row),
	}
	for k, n := range e.byKind[id] {
		if n != 0 {
			if m.ByKind == nil {
				m.ByKind = make(map[string]int, model.KindCount)
			}
			m.ByKind[model.Kind(k).String()] = int(n)
		}
	}
	if ys := e.byYear[id]; len(ys) > 0 {
		m.ByYear = make(map[int]int, len(ys))
		for _, yc := range ys {
			m.ByYear[int(yc.year)] = int(yc.works)
		}
	}
	if len(row) > 0 {
		top := topk.New(topCollaborators, len(row), func(a, b graph.Edge) int {
			if a.Works != b.Works {
				return cmp.Compare(b.Works, a.Works)
			}
			return strings.Compare(e.graph.Heading(a.ID), e.graph.Heading(b.ID))
		})
		for _, edge := range row {
			top.Push(edge)
		}
		best := top.Sorted()
		m.TopCollaborators = make([]Collaborator, len(best))
		for i, edge := range best {
			m.TopCollaborators[i] = Collaborator{Heading: e.graph.Heading(edge.ID), Works: int(edge.Works)}
		}
	}
	return m
}

// hIndex computes the productivity h-index over per-year counts: the
// largest h such that h years have at least h works each. It raises h
// while more than h years hold more than h works, one pass over the
// slice per step, so it allocates nothing: rank by h-index calls it
// once per author.
func hIndex(byYear []yearCount) int {
	h := 0
	for {
		above := 0
		for _, yc := range byYear {
			if int(yc.works) > h {
				above++
			}
		}
		if above <= h {
			return h
		}
		h++
	}
}

// rankValue returns the sort key under a rank key as a function of a
// heading ID. All keys compare descending; raw integer counters avoid
// materializing snapshots for headings that will not make the cut.
func (e *Engine) rankValue(by RankKey) func(id uint32) int64 {
	switch by {
	case ByWeighted:
		return func(id uint32) int64 { return e.wgtMicro[id] }
	case ByFractional:
		return func(id uint32) int64 { return e.fracMicro[id] }
	case ByHIndex:
		return func(id uint32) int64 { return int64(hIndex(e.byYear[id])) }
	case ByCollaborators:
		return func(id uint32) int64 { return int64(len(e.graph.Row(id))) }
	case ByFirstAuthored:
		return func(id uint32) int64 { return int64(e.first[id]) }
	default:
		return func(id uint32) int64 { return int64(e.works[id]) }
	}
}

// TopAuthors returns up to limit snapshots ordered by the rank key
// descending, ties broken by heading ascending. limit <= 0 means all.
// A positive limit keeps only the best limit authors while it scans the
// rank key's column, so a page of the ranking costs
// O(authors · log limit), not a sort of every author, and reads a
// heading string only to break a tie.
func (e *Engine) TopAuthors(by RankKey, limit int) []AuthorMetrics {
	type ranked struct {
		id    uint32
		value int64
	}
	value := e.rankValue(by)
	top := topk.New(limit, len(e.authors), func(a, b ranked) int {
		if a.value != b.value {
			return cmp.Compare(b.value, a.value)
		}
		return strings.Compare(e.graph.Heading(a.id), e.graph.Heading(b.id))
	})
	for id, n := range e.works {
		if n > 0 {
			top.Push(ranked{id: uint32(id), value: value(uint32(id))})
		}
	}
	rs := top.Sorted()
	out := make([]AuthorMetrics, len(rs))
	for i, r := range rs {
		out[i] = e.snapshot(r.id)
	}
	return out
}

// Summary returns corpus-level aggregates in O(1): the work and pair
// counts come from the graph, everything else is pre-maintained.
func (e *Engine) Summary() Summary {
	s := Summary{
		Scheme:    e.scheme.String(),
		Authors:   len(e.authors),
		Works:     e.graph.Works(),
		Postings:  e.postings,
		SoloWorks: e.solo,
		Pairs:     e.graph.Edges(),
	}
	if s.Works > 0 {
		s.MeanAuthorsPerWork = float64(s.Postings) / float64(s.Works)
	}
	return s
}

// Fingerprint renders the canonical tracker state — the graph's
// Fingerprint, then every heading's credit counters in heading order —
// as a deterministic byte string. Two engines under the same scheme
// over the same corpus are byte-identical here whatever mutation order
// produced them, or whatever IDs it assigned, so Verify compares the
// incremental tracker with a from-scratch rebuild this way.
func (e *Engine) Fingerprint() string {
	b := []byte(e.graph.Fingerprint())
	b = fmt.Appendf(b, "\npostings=%d solo=%d\n", e.postings, e.solo)
	for _, id := range e.graph.Sorted() {
		b = fmt.Appendf(b, "%s\t%d\t%d\t%d\t%d", e.graph.Heading(id), e.works[id], e.first[id], e.fracMicro[id], e.wgtMicro[id])
		for k, n := range e.byKind[id] {
			if n != 0 {
				b = fmt.Appendf(b, "\tk%d=%d", k, n)
			}
		}
		for _, yc := range e.byYear[id] {
			b = fmt.Appendf(b, "\ty%d=%d", yc.year, yc.works)
		}
		b = append(b, '\n')
	}
	return string(b)
}
