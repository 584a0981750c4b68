// Package graph maintains the coauthorship network over the indexed
// corpus: authors are nodes, and two authors share an undirected edge
// weighted by the number of works they co-signed. On top of the
// adjacency structure it answers collaboration paths (Erdős-style BFS
// distances), connected components (union-find, rebuilt lazily after an
// edge deletion), degree and weighted degree, and an iterative
// PageRank-style centrality with a configurable damping factor.
//
// Storage is flat. Each heading is interned once to a dense uint32 ID;
// an ID is freed, and later reused, when the heading's last work is
// removed. Per-heading state lives in columns indexed by ID, and each
// heading's co-authors form one pointer-free adjacency row of
// (ID, weight) edges sorted by ID. Union-find, BFS and PageRank run over
// []uint32 and []float64 indexed the same way. The metrics tracker that
// owns a Graph keys its credit columns by the same IDs.
//
// The public API stays keyed by heading string, and every ordered output
// (paths, neighbor lists, centrality ties, Fingerprint) follows heading
// order, never ID order, so results do not depend on which IDs a
// mutation history happened to assign.
//
// The engine is incremental: Add and Remove update the adjacency
// structure in O(authors-per-work²) edge updates, each a binary search
// in a row, and a Remove exactly inverts the matching Add, so an
// incrementally maintained graph is indistinguishable from one rebuilt
// from scratch (Fingerprint renders the canonical state byte-for-byte
// for that cross-check). Derived views — components, centrality — are
// cached and recomputed deterministically when the structure has
// changed.
//
// The package consumes the corpus rather than indexing it. It is the
// one co-author structure: the metrics tracker owns a Graph, feeds it
// every mutation, and reads collaboration counts back from it.
package graph

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/topk"
)

// DefaultDamping is the PageRank damping factor used when none is
// configured; 0.85 is the value the original algorithm recommends.
const DefaultDamping = 0.85

// pageRankIters bounds the power iteration; convergence on corpus-sized
// graphs arrives far earlier.
const pageRankIters = 100

// pageRankEpsilon stops the iteration once the total rank movement per
// node falls below it.
const pageRankEpsilon = 1e-10

// topCentral caps the ranked list embedded in a Summary.
const topCentral = 5

// NoID stands in RemoveIDs' result for an author position whose heading
// is not in the graph.
const NoID = ^uint32(0)

// Edge is one entry of an adjacency row: a co-author's heading ID and
// the number of works the two headings share.
type Edge struct {
	ID    uint32
	Works int32
}

// Graph is the incremental coauthorship network engine. Mutations
// (Add, Remove, Rebuild, SetDamping) are not safe for concurrent use —
// the owning layer serializes them against everything else — but read
// methods may run concurrently with each other: the internal mutex
// guards the lazily (re)computed component and centrality caches, so
// callers holding only a read lock on the owning layer stay race-free.
type Graph struct {
	damping float64

	// ids interns each live heading to its ID; names is the inverse, ""
	// at a freed ID. free holds freed IDs for reuse.
	ids   map[string]uint32
	names []string
	free  []uint32

	// Columns indexed by ID. works counts the works a heading appears on
	// (a solo author is an isolated node; 0 marks a freed ID), wdeg is
	// the sum of its row's weights, and rows[id] lists its co-authors
	// sorted by ID.
	works []int32
	wdeg  []int32
	rows  [][]Edge

	tracked map[model.WorkID]struct{}
	edges   int // distinct undirected pairs with weight > 0

	// mu guards the lazy caches below (comp and pr with their dirty
	// flags) during concurrent reads. Mutations run exclusively, so the
	// primary structures above need no lock.
	mu sync.Mutex

	// comp is the union-find parent column, one entry per ID. Additions
	// union incrementally; deletions mark it dirty and the next component
	// query rebuilds it from the adjacency rows.
	comp      []uint32
	compDirty bool
	compCount int

	// pr caches the last PageRank vector by ID; any mutation invalidates
	// it.
	pr      []float64
	prDirty bool

	// display memoizes heading construction during Rebuild; nil (a
	// plain Display pass-through) outside it.
	display model.DisplayMemo
	// pscratch (an ID per author position) and hscratch (distinct IDs)
	// are reusable buffers. Mutations are serialized by the owning layer
	// and no caller retains them past the next mutation, so one each
	// suffices.
	pscratch, hscratch []uint32
}

// New returns an empty graph. A damping factor outside (0, 1) — NaN
// included — falls back to DefaultDamping.
func New(damping float64) *Graph {
	if !(damping > 0 && damping < 1) {
		damping = DefaultDamping
	}
	return &Graph{
		damping: damping,
		ids:     make(map[string]uint32),
		tracked: make(map[model.WorkID]struct{}),
	}
}

// NewFromWorks builds a graph from scratch over a corpus — the
// from-scratch baseline incremental state is verified against.
func NewFromWorks(damping float64, works []*model.Work) *Graph {
	g := New(damping)
	for _, w := range works {
		g.Add(w)
	}
	return g
}

// Damping returns the PageRank damping factor in effect.
func (g *Graph) Damping() float64 { return g.damping }

// SetDamping changes the damping factor (values outside (0, 1) — NaN
// included — fall back to DefaultDamping) and invalidates the
// centrality cache.
func (g *Graph) SetDamping(d float64) {
	if !(d > 0 && d < 1) {
		d = DefaultDamping
	}
	if d != g.damping {
		g.damping = d
		g.prDirty = true
	}
}

// Nodes returns the number of authors in the network.
func (g *Graph) Nodes() int { return len(g.ids) }

// Edges returns the number of distinct collaborating pairs.
func (g *Graph) Edges() int { return g.edges }

// Works returns the number of works folded into the graph.
func (g *Graph) Works() int { return len(g.tracked) }

// ---- heading IDs ----

// HeadingIDs returns the heading → ID map of every live heading. The
// caller must not modify it. Rebuild replaces the map, so a caller that
// keeps it re-reads it after each Rebuild.
func (g *Graph) HeadingIDs() map[string]uint32 { return g.ids }

// Heading returns the heading interned as id ("" for a freed ID).
func (g *Graph) Heading(id uint32) string { return g.names[id] }

// Row returns id's adjacency row, sorted by co-author ID. The caller
// must not modify it, and it is valid until the next mutation.
func (g *Graph) Row(id uint32) []Edge { return g.rows[id] }

// Sorted returns every live heading ID in heading order.
func (g *Graph) Sorted() []uint32 {
	out := make([]uint32, 0, len(g.ids))
	for id, n := range g.works {
		if n > 0 {
			out = append(out, uint32(id))
		}
	}
	slices.SortFunc(out, g.byHeading)
	return out
}

// byHeading orders two IDs by their headings.
func (g *Graph) byHeading(a, b uint32) int { return strings.Compare(g.names[a], g.names[b]) }

// intern assigns a freed or a new ID to a heading the graph has not
// seen.
func (g *Graph) intern(h string) uint32 {
	var id uint32
	if n := len(g.free); n > 0 {
		id, g.free = g.free[n-1], g.free[:n-1]
		g.names[id] = h
	} else {
		id = uint32(len(g.names))
		g.names = append(g.names, h)
		g.works = append(g.works, 0)
		g.wdeg = append(g.wdeg, 0)
		g.rows = append(g.rows, nil)
		g.comp = append(g.comp, id)
	}
	g.ids[h] = id
	if !g.compDirty {
		g.comp[id] = id
		g.compCount++
	}
	return id
}

// release frees the ID of a heading whose last work is gone. Its row is
// already empty: every edge needs a shared work.
func (g *Graph) release(id uint32) {
	delete(g.ids, g.names[id])
	g.names[id] = ""
	g.works[id], g.wdeg[id], g.rows[id] = 0, 0, nil
	g.free = append(g.free, id)
	g.compDirty = true
}

// resolve returns the heading ID at each of w's author positions and the
// distinct IDs in first-seen order — computed identically by Add and
// Remove so removal inverts addition exactly. A heading listed at
// several positions (a self-collaboration) counts once and earns no
// self-edge. add interns unseen headings; otherwise they resolve to
// NoID and are left out of the distinct list.
func (g *Graph) resolve(w *model.Work, add bool) (pos, distinct []uint32) {
	pos, distinct = g.pscratch[:0], g.hscratch[:0]
	for _, a := range w.Authors {
		h := g.display.Display(a)
		id, ok := g.ids[h]
		if !ok && add {
			id, ok = g.intern(h), true
		}
		if !ok {
			pos = append(pos, NoID)
			continue
		}
		pos = append(pos, id)
		if !slices.Contains(distinct, id) {
			distinct = append(distinct, id)
		}
	}
	g.pscratch, g.hscratch = pos, distinct
	return pos, distinct
}

// link adds n to the weight of a's edge to b, inserting the edge when it
// is new and deleting it when its weight reaches zero, and returns the
// new weight.
func (g *Graph) link(a, b uint32, n int32) int32 {
	row := g.rows[a]
	i, found := slices.BinarySearchFunc(row, b, func(e Edge, id uint32) int { return cmp.Compare(e.ID, id) })
	if !found {
		row = slices.Insert(row, i, Edge{ID: b})
	}
	row[i].Works += n
	w := row[i].Works
	if w <= 0 {
		if row = slices.Delete(row, i, i+1); len(row) == 0 {
			row = nil
		}
	}
	g.rows[a] = row
	g.wdeg[a] += n
	return w
}

// Add folds w into the network in O(len(w.Authors)²) edge updates (the
// quadratic term is the pairwise edge update; author lists are short)
// and reports whether it did. Adding an ID that is already tracked is a
// no-op that reports false.
func (g *Graph) Add(w *model.Work) bool {
	_, ok := g.AddIDs(w)
	return ok
}

// AddIDs is Add, also returning the heading ID at each of w's author
// positions. The slice is valid until the next mutation.
func (g *Graph) AddIDs(w *model.Work) ([]uint32, bool) {
	if w == nil || len(w.Authors) == 0 {
		return nil, false
	}
	if _, dup := g.tracked[w.ID]; dup {
		return nil, false
	}
	g.tracked[w.ID] = struct{}{}
	pos, hs := g.resolve(w, true)
	for _, id := range hs {
		g.works[id]++
	}
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			g.link(hs[j], hs[i], 1)
			if g.link(hs[i], hs[j], 1) == 1 {
				g.edges++
				if !g.compDirty {
					g.union(hs[i], hs[j])
				}
			}
		}
	}
	g.prDirty = true
	return pos, true
}

// Remove exactly inverts the Add of the same work and reports whether
// the ID was tracked; removing an untracked ID is a no-op. Deleting an
// edge or a node marks the component structure dirty; the next
// component query rebuilds it.
func (g *Graph) Remove(w *model.Work) bool {
	_, ok := g.RemoveIDs(w)
	return ok
}

// RemoveIDs is Remove, also returning the heading ID at each of w's
// author positions (NoID where the heading is unknown). An ID whose
// heading lost its last work is already free, but is not reused before
// the next mutation. The slice is valid until then.
func (g *Graph) RemoveIDs(w *model.Work) ([]uint32, bool) {
	if w == nil || len(w.Authors) == 0 {
		return nil, false
	}
	if _, ok := g.tracked[w.ID]; !ok {
		return nil, false
	}
	delete(g.tracked, w.ID)
	pos, hs := g.resolve(w, false)
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			g.link(hs[j], hs[i], -1)
			if g.link(hs[i], hs[j], -1) <= 0 {
				g.edges--
				g.compDirty = true
			}
		}
	}
	for _, id := range hs {
		if g.works[id]--; g.works[id] <= 0 {
			g.release(id)
		}
	}
	g.prDirty = true
	return pos, true
}

// Rebuild resets the graph and re-adds the corpus in one pass — the
// recovery path when incremental state is suspect.
func (g *Graph) Rebuild(works []*model.Work) { g.RebuildIDs(works, nil) }

// RebuildIDs is Rebuild, calling each (when non-nil) with every work
// folded in and its per-position heading IDs, as AddIDs returns them.
func (g *Graph) RebuildIDs(works []*model.Work, each func(w *model.Work, ids []uint32)) {
	// Presize for the common author-to-work ratio so a cold rebuild does
	// not pay map growth rehashes all the way up.
	g.ids = make(map[string]uint32, max(len(g.ids), len(works)/3))
	g.names, g.free, g.works, g.wdeg, g.rows, g.comp = nil, nil, nil, nil, nil, nil
	g.tracked = make(map[model.WorkID]struct{}, len(works))
	g.edges, g.compCount = 0, 0
	g.compDirty, g.prDirty = false, true
	g.display = make(model.DisplayMemo)
	defer func() { g.display = nil }()
	for _, w := range works {
		if ids, ok := g.AddIDs(w); ok && each != nil {
			each(w, ids)
		}
	}
}

// Neighbors returns a heading's co-authors with shared-work counts,
// heaviest first (ties broken by heading ascending).
func (g *Graph) Neighbors(heading string) []Neighbor {
	id, ok := g.ids[heading]
	if !ok {
		return nil
	}
	out := make([]Neighbor, 0, len(g.rows[id]))
	for _, e := range g.rows[id] {
		out = append(out, Neighbor{Heading: g.names[e.ID], Works: int(e.Works)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Works != out[j].Works {
			return out[i].Works > out[j].Works
		}
		return out[i].Heading < out[j].Heading
	})
	return out
}

// Neighbor pairs a co-author heading with the number of shared works.
type Neighbor struct {
	Heading string `json:"heading"`
	Works   int    `json:"works"`
}

// ---- components (union-find with lazy rebuild) ----

// find resolves the union-find root with path compression.
func (g *Graph) find(x uint32) uint32 {
	root := x
	for g.comp[root] != root {
		root = g.comp[root]
	}
	for g.comp[x] != root {
		g.comp[x], x = root, g.comp[x]
	}
	return root
}

// union merges the components of a and b.
func (g *Graph) union(a, b uint32) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	g.comp[rb] = ra
	g.compCount--
}

// rebuildComponents recomputes the union-find from the adjacency rows,
// O(nodes + edges) — the lazy path after a deletion.
func (g *Graph) rebuildComponents() {
	for id := range g.comp {
		g.comp[id] = uint32(id)
	}
	g.compCount = len(g.ids)
	for id, row := range g.rows {
		for _, e := range row {
			g.union(uint32(id), e.ID)
		}
	}
	g.compDirty = false
}

// Components returns the number of connected components (isolated
// authors count as singleton components).
func (g *Graph) Components() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.compDirty {
		g.rebuildComponents()
	}
	return g.compCount
}

// SameComponent reports whether two headings are connected by any chain
// of collaborations. Unknown headings are in no component.
func (g *Graph) SameComponent(a, b string) bool {
	ia, ok := g.ids[a]
	if !ok {
		return false
	}
	ib, ok := g.ids[b]
	if !ok {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.compDirty {
		g.rebuildComponents()
	}
	return g.find(ia) == g.find(ib)
}

// LargestComponent returns the size of the biggest connected component.
func (g *Graph) LargestComponent() int {
	if len(g.ids) == 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.compDirty {
		g.rebuildComponents()
	}
	sizes := make([]int32, len(g.comp))
	best := int32(0)
	for id, n := range g.works {
		if n <= 0 {
			continue
		}
		r := g.find(uint32(id))
		if sizes[r]++; sizes[r] > best {
			best = sizes[r]
		}
	}
	return int(best)
}

// ---- collaboration paths ----

// Path returns the shortest collaboration chain between two headings,
// endpoints included, and whether one exists. The distance is
// len(path)-1 collaborations (Erdős-style). A heading reaches itself
// with a single-element path. The union-find answers the reachability
// question first, so cross-component queries never pay for a BFS.
func (g *Graph) Path(from, to string) ([]string, bool) {
	src, ok := g.ids[from]
	if !ok {
		return nil, false
	}
	dst, ok := g.ids[to]
	if !ok {
		return nil, false
	}
	if from == to {
		return []string{from}, true
	}
	if !g.SameComponent(from, to) {
		return nil, false
	}
	// BFS with neighbor expansion in heading order: among equal-length
	// paths the lexicographically earliest is found, so results are
	// deterministic.
	prev := make([]uint32, len(g.names))
	for i := range prev {
		prev[i] = NoID
	}
	prev[src] = src
	queue := []uint32{src}
	var next []uint32
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next = next[:0]
		for _, e := range g.rows[cur] {
			if prev[e.ID] == NoID {
				next = append(next, e.ID)
			}
		}
		slices.SortFunc(next, g.byHeading)
		for _, id := range next {
			prev[id] = cur
			if id == dst {
				var path []string
				for at := dst; at != src; at = prev[at] {
					path = append(path, g.names[at])
				}
				path = append(path, from)
				slices.Reverse(path)
				return path, true
			}
			queue = append(queue, id)
		}
	}
	return nil, false // unreachable: SameComponent said yes
}

// ---- centrality (weighted PageRank) ----

// pageRank computes (or returns the cached) PageRank vector, indexed by
// ID. Rank flows along edges proportional to their weight; isolated
// authors hold the teleport mass only. Every pass visits headings in
// heading order, so each score's floating-point sums run in the same
// order whatever IDs the headings hold, and the result is deterministic
// for a given structure. A fresh vector is built on every recompute, so
// callers may keep reading a previously returned one.
func (g *Graph) pageRank() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.prDirty && g.pr != nil {
		return g.pr
	}
	order := g.Sorted()
	n := len(order)
	pr := make([]float64, len(g.names))
	if n == 0 {
		g.pr, g.prDirty = pr, false
		return pr
	}
	for _, id := range order {
		pr[id] = 1 / float64(n)
	}
	d := g.damping
	base := (1 - d) / float64(n)
	next := make([]float64, len(g.names))
	for iter := 0; iter < pageRankIters; iter++ {
		// Isolated nodes (weighted degree 0) have nowhere to send their
		// damped mass; redistribute it uniformly so rank still sums to 1.
		dangling := 0.0
		for _, id := range order {
			if g.wdeg[id] == 0 {
				dangling += pr[id]
			}
		}
		spread := base + d*dangling/float64(n)
		for _, id := range order {
			next[id] = spread
		}
		for _, id := range order {
			if g.wdeg[id] == 0 {
				continue
			}
			share := d * pr[id] / float64(g.wdeg[id])
			for _, e := range g.rows[id] {
				next[e.ID] += share * float64(e.Works)
			}
		}
		delta := 0.0
		for _, id := range order {
			diff := next[id] - pr[id]
			if diff < 0 {
				diff = -diff
			}
			delta += diff
			pr[id] = next[id]
		}
		if delta < pageRankEpsilon*float64(n) {
			break
		}
	}
	g.pr, g.prDirty = pr, false
	return pr
}

// Centrality returns a heading's PageRank score (scores across the
// network sum to 1).
func (g *Graph) Centrality(heading string) (float64, bool) {
	id, ok := g.ids[heading]
	if !ok {
		return 0, false
	}
	return g.pageRank()[id], true
}

// CentralAuthor pairs a heading with its centrality score.
type CentralAuthor struct {
	Heading string  `json:"heading"`
	Score   float64 `json:"score"`
}

// TopCentral returns up to limit authors by centrality descending (ties
// broken by heading ascending). limit <= 0 means all. A positive limit
// costs O(authors · log limit) over the cached scores, not a full sort.
func (g *Graph) TopCentral(limit int) []CentralAuthor {
	pr := g.pageRank()
	top := topk.New(limit, len(g.ids), func(a, b uint32) int {
		if pr[a] != pr[b] {
			return cmp.Compare(pr[b], pr[a])
		}
		return g.byHeading(a, b)
	})
	for id, n := range g.works {
		if n > 0 {
			top.Push(uint32(id))
		}
	}
	ids := top.Sorted()
	out := make([]CentralAuthor, len(ids))
	for i, id := range ids {
		out[i] = CentralAuthor{Heading: g.names[id], Score: pr[id]}
	}
	return out
}

// ---- summary & verification ----

// Summary aggregates network-level statistics.
type Summary struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Works counts works folded into the graph.
	Works int `json:"works"`
	// Components counts connected components; LargestComponent is the
	// size of the biggest one.
	Components       int `json:"components"`
	LargestComponent int `json:"largestComponent"`
	// Density is edges over possible pairs, 2E / (V·(V−1)).
	Density float64 `json:"density"`
	// Damping is the PageRank damping factor the scores were computed
	// under; TopCentral lists the most central authors, best first.
	Damping    float64         `json:"damping"`
	TopCentral []CentralAuthor `json:"topCentral,omitempty"`
}

// Density returns edges over possible pairs, 2E / (V·(V−1)); zero for
// graphs with fewer than two nodes.
func (g *Graph) Density() float64 {
	v, e := len(g.ids), g.edges
	if v < 2 {
		return 0
	}
	return 2 * float64(e) / (float64(v) * float64(v-1))
}

// Summarize returns network-level aggregates with the top-central list.
func (g *Graph) Summarize() Summary {
	return Summary{
		Nodes:            g.Nodes(),
		Edges:            g.Edges(),
		Works:            g.Works(),
		Components:       g.Components(),
		LargestComponent: g.LargestComponent(),
		Density:          g.Density(),
		Damping:          g.damping,
		TopCentral:       g.TopCentral(topCentral),
	}
}

// Fingerprint renders the canonical graph state — every node with its
// work count and its adjacency in heading order, plus the tracked work
// IDs — as a deterministic byte string. Two graphs over the same corpus
// are byte-identical here regardless of the mutation order that
// produced them, or the IDs it assigned; Verify paths compare an
// incremental graph against NewFromWorks this way.
func (g *Graph) Fingerprint() string {
	var b strings.Builder
	var row []Edge
	for _, id := range g.Sorted() {
		b.WriteString(g.names[id])
		writeInt(&b, int(g.works[id]))
		row = append(row[:0], g.rows[id]...)
		slices.SortFunc(row, func(x, y Edge) int { return g.byHeading(x.ID, y.ID) })
		for _, e := range row {
			b.WriteByte('\t')
			b.WriteString(g.names[e.ID])
			writeInt(&b, int(e.Works))
		}
		b.WriteByte('\n')
	}
	ids := make([]uint64, 0, len(g.tracked))
	for id := range g.tracked {
		ids = append(ids, uint64(id))
	}
	slices.Sort(ids)
	for _, id := range ids {
		writeInt(&b, int(id))
	}
	return b.String()
}

// writeInt appends "=<n>" without the fmt machinery (Fingerprint runs
// inside Verify on every invariant check).
func writeInt(b *strings.Builder, n int) {
	b.WriteByte('=')
	if n < 0 {
		b.WriteByte('-')
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	b.Write(buf[i:])
}
