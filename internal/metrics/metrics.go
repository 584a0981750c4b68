// Package metrics maintains per-author bibliometric statistics over the
// indexed corpus: work counts by kind and year, fractional and
// position-weighted authorship credit (Abbas-style counting schemes),
// an h-index-style productivity score over per-year output, and
// co-author collaboration degree, read from the coauthorship graph the
// engine owns.
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

// authorStats is the live per-heading credit state. Counters only —
// snapshots are materialized on read, and collaboration counts live in
// the engine's graph.
type authorStats struct {
	works     int
	first     int
	byKind    map[model.Kind]int
	byYear    map[int]int
	fracMicro int64
	wgtMicro  int64
}

// Engine is the incremental bibliometrics tracker. It owns the
// coauthorship graph, the one co-author structure: the graph records
// which works are folded in and how many works each pair of headings
// shares, and the engine keeps only per-heading credit counters beside
// it. Mutations (Add, Remove, Rebuild) are not safe for concurrent use;
// the owning layer serializes them.
type Engine struct {
	scheme   Scheme
	authors  map[string]*authorStats // keyed by Author.Display()
	graph    *graph.Graph
	postings int
	solo     int
	// display memoizes heading construction during Rebuild; nil (a
	// plain Display pass-through) outside it.
	display model.DisplayMemo
	// dscratch is the reusable deltas buffer for the single-author fast
	// path. Mutations are serialized by the owning layer and no caller
	// retains the slice past its call, so one buffer suffices.
	dscratch [1]delta
}

// heading returns a.Display(), memoized while a Rebuild is running.
func (e *Engine) heading(a model.Author) string { return e.display.Display(a) }

// NewEngine returns an empty tracker using the given counting scheme,
// over an empty graph with the default damping factor. An invalid
// scheme falls back to Harmonic rather than silently zeroing every
// weight; callers that want an error should check Scheme.Valid.
func NewEngine(scheme Scheme) *Engine {
	if !scheme.Valid() {
		scheme = Harmonic
	}
	return &Engine{
		scheme:  scheme,
		authors: make(map[string]*authorStats),
		graph:   graph.New(0),
	}
}

// Weighting returns the scheme the engine divides credit with.
func (e *Engine) Weighting() Scheme { return e.scheme }

// Graph returns the coauthorship network the engine owns. Callers may
// read it and set its damping factor, but must not Add or Remove works
// on it directly: the engine's credit counters follow the graph's
// membership.
func (e *Engine) Graph() *graph.Graph { return e.graph }

// Len returns the number of tracked headings.
func (e *Engine) Len() int { return len(e.authors) }

// delta is the per-(work, heading) contribution, computed identically
// by Add and Remove so removal inverts addition exactly.
type delta struct {
	heading   string
	first     bool
	fracMicro int64
	wgtMicro  int64
}

// deltas returns one entry per distinct heading on w, in first-position
// order. A heading listed at several positions earns the credit of each
// position but counts as one work. Solo works — the bulk of any
// bibliography — take an allocation-free fast path over a reusable
// buffer; callers never retain the slice past their call.
func (e *Engine) deltas(w *model.Work) []delta {
	k := len(w.Authors)
	if k == 1 {
		e.dscratch[0] = delta{
			heading:   e.heading(w.Authors[0]),
			first:     true,
			fracMicro: microUnit,
			wgtMicro:  positionMicro(e.scheme, 1, 1),
		}
		return e.dscratch[:]
	}
	index := make(map[string]int, k)
	out := make([]delta, 0, k)
	for i, a := range w.Authors {
		h := e.heading(a)
		j, ok := index[h]
		if !ok {
			j = len(out)
			index[h] = j
			out = append(out, delta{heading: h, first: i == 0})
		}
		out[j].fracMicro += microUnit / int64(k)
		out[j].wgtMicro += positionMicro(e.scheme, i+1, k)
	}
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
	if e.graph.Add(w) {
		e.credit(w, 1)
	}
}

// Remove exactly inverts the Add of the same work. Removing an
// untracked ID is a no-op.
func (e *Engine) Remove(w *model.Work) {
	if e.graph.Remove(w) {
		e.credit(w, -1)
	}
}

// credit adds (sign 1) or subtracts (sign -1) w's per-heading deltas,
// dropping a heading once it has no works left.
func (e *Engine) credit(w *model.Work, sign int) {
	ds := e.deltas(w)
	for _, d := range ds {
		st := e.authors[d.heading]
		if st == nil {
			st = &authorStats{byKind: make(map[model.Kind]int), byYear: make(map[int]int)}
			e.authors[d.heading] = st
		}
		st.works += sign
		if d.first {
			st.first += sign
		}
		bump(st.byKind, w.Kind, sign)
		if y := w.Citation.Year; y > 0 {
			bump(st.byYear, y, sign)
		}
		st.fracMicro += int64(sign) * d.fracMicro
		st.wgtMicro += int64(sign) * d.wgtMicro
		if st.works <= 0 {
			delete(e.authors, d.heading)
		}
	}
	e.postings += sign * len(ds)
	if len(ds) == 1 {
		e.solo += sign
	}
}

// bump adds n to m[k], deleting the key once its count reaches zero.
func bump[K comparable](m map[K]int, k K, n int) {
	if m[k] += n; m[k] <= 0 {
		delete(m, k)
	}
}

// Rebuild resets the engine and re-adds the corpus — the recovery path
// when incremental state is suspect. The graph rebuilds first, then one
// pass fills the credit counters; each pass memoizes heading
// construction across the whole corpus. Works must carry distinct IDs,
// as every indexed corpus does: the graph folds a repeated ID in once,
// where the credit pass would count it twice.
func (e *Engine) Rebuild(works []*model.Work) {
	e.graph.Rebuild(works)
	// Presize for the common author-to-work ratio so a cold rebuild does
	// not pay map growth rehashes all the way up.
	e.authors = make(map[string]*authorStats, max(len(e.authors), len(works)/3))
	e.postings, e.solo = 0, 0
	e.display = make(model.DisplayMemo)
	defer func() { e.display = nil }()
	for _, w := range works {
		if w != nil && len(w.Authors) > 0 {
			e.credit(w, 1)
		}
	}
}

// Author returns the snapshot for one heading in Display form.
func (e *Engine) Author(heading string) (AuthorMetrics, bool) {
	st, ok := e.authors[heading]
	if !ok {
		return AuthorMetrics{}, false
	}
	return e.snapshot(heading, st), true
}

// snapshot materializes one AuthorMetrics from live counters.
func (e *Engine) snapshot(heading string, st *authorStats) AuthorMetrics {
	m := AuthorMetrics{
		Heading:       heading,
		Works:         st.works,
		FirstAuthored: st.first,
		Fractional:    float64(st.fracMicro) / microUnit,
		Weighted:      float64(st.wgtMicro) / microUnit,
		HIndex:        hIndex(st.byYear),
	}
	m.Collaborators, _ = e.graph.Degree(heading)
	if len(st.byKind) > 0 {
		m.ByKind = make(map[string]int, len(st.byKind))
		for k, n := range st.byKind {
			m.ByKind[k.String()] = n
		}
	}
	if len(st.byYear) > 0 {
		m.ByYear = make(map[int]int, len(st.byYear))
		for y, n := range st.byYear {
			m.ByYear[y] = n
		}
	}
	if m.Collaborators > 0 {
		top := newTopK(topCollaborators, m.Collaborators, func(a, b Collaborator) int {
			if a.Works != b.Works {
				return cmp.Compare(b.Works, a.Works)
			}
			return strings.Compare(a.Heading, b.Heading)
		})
		e.graph.EachNeighbor(heading, func(h string, n int) {
			top.push(Collaborator{Heading: h, Works: n})
		})
		m.TopCollaborators = top.sorted()
	}
	return m
}

// hIndex computes the productivity h-index over per-year counts: the
// largest h such that h years have at least h works each. It raises h
// while more than h years hold more than h works, one pass over the
// map per step, so it allocates nothing: rank by h-index calls it once
// per author.
func hIndex(byYear map[int]int) int {
	h := 0
	for {
		above := 0
		for _, n := range byYear {
			if n > h {
				above++
			}
		}
		if above <= h {
			return h
		}
		h++
	}
}

// topK keeps the best k of the items pushed into it, where order(a, b)
// < 0 ranks a before b and must be a total order. The kept items form a
// heap with the worst at its root, so n pushes cost O(n log k) time and
// O(k) space however large n grows, and the result equals the first k
// of a full sort. k <= 0 keeps every item.
type topK[T any] struct {
	k     int
	order func(a, b T) int
	items []T
}

// newTopK returns an empty selection of the best k of about n items.
func newTopK[T any](k, n int, order func(a, b T) int) *topK[T] {
	if k > 0 && k < n {
		n = k
	}
	return &topK[T]{k: k, order: order, items: make([]T, 0, n)}
}

func (t *topK[T]) push(x T) {
	switch {
	case t.k <= 0:
		t.items = append(t.items, x)
	case len(t.items) < t.k:
		t.items = append(t.items, x)
		for i := len(t.items) - 1; i > 0; {
			p := (i - 1) / 2
			if t.order(t.items[p], t.items[i]) >= 0 {
				break
			}
			t.items[p], t.items[i] = t.items[i], t.items[p]
			i = p
		}
	case t.order(x, t.items[0]) < 0:
		t.items[0] = x
		for i := 0; ; {
			w := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(t.items) && t.order(t.items[c], t.items[w]) > 0 {
					w = c
				}
			}
			if w == i {
				break
			}
			t.items[w], t.items[i] = t.items[i], t.items[w]
			i = w
		}
	}
}

// sorted returns the kept items, best first.
func (t *topK[T]) sorted() []T {
	slices.SortFunc(t.items, t.order)
	return t.items
}

// rankValue returns the sort key for one heading under a rank key. All
// keys compare descending; raw integer counters avoid materializing
// snapshots for headings that will not make the cut.
func (e *Engine) rankValue(by RankKey, heading string, st *authorStats) int64 {
	switch by {
	case ByWeighted:
		return st.wgtMicro
	case ByFractional:
		return st.fracMicro
	case ByHIndex:
		return int64(hIndex(st.byYear))
	case ByCollaborators:
		d, _ := e.graph.Degree(heading)
		return int64(d)
	case ByFirstAuthored:
		return int64(st.first)
	default:
		return int64(st.works)
	}
}

// TopAuthors returns up to limit snapshots ordered by the rank key
// descending, ties broken by heading ascending. limit <= 0 means all.
// A positive limit keeps only the best limit authors while it walks
// them, so a page of the ranking costs O(authors · log limit), not a
// sort of every author.
func (e *Engine) TopAuthors(by RankKey, limit int) []AuthorMetrics {
	type ranked struct {
		heading string
		st      *authorStats
		value   int64
	}
	top := newTopK(limit, len(e.authors), func(a, b ranked) int {
		if a.value != b.value {
			return cmp.Compare(b.value, a.value)
		}
		return strings.Compare(a.heading, b.heading)
	})
	for h, st := range e.authors {
		top.push(ranked{heading: h, st: st, value: e.rankValue(by, h, st)})
	}
	rs := top.sorted()
	out := make([]AuthorMetrics, len(rs))
	for i, r := range rs {
		out[i] = e.snapshot(r.heading, r.st)
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
// produced them, so Verify compares the incremental tracker with a
// from-scratch rebuild this way.
func (e *Engine) Fingerprint() string {
	b := []byte(e.graph.Fingerprint())
	b = fmt.Appendf(b, "\npostings=%d solo=%d\n", e.postings, e.solo)
	for _, h := range sortedKeys(e.authors) {
		st := e.authors[h]
		b = fmt.Appendf(b, "%s\t%d\t%d\t%d\t%d", h, st.works, st.first, st.fracMicro, st.wgtMicro)
		for _, k := range sortedKeys(st.byKind) {
			b = fmt.Appendf(b, "\tk%d=%d", k, st.byKind[k])
		}
		for _, y := range sortedKeys(st.byYear) {
			b = fmt.Appendf(b, "\ty%d=%d", y, st.byYear[y])
		}
		b = append(b, '\n')
	}
	return string(b)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
