// Package graph maintains the coauthorship network over the indexed
// corpus: authors are nodes, and two authors share an undirected edge
// weighted by the number of works they co-signed. On top of the
// adjacency structure it answers collaboration paths (Erdős-style BFS
// distances), connected components (union-find, rebuilt lazily after an
// edge deletion), degree and weighted degree, and an iterative
// PageRank-style centrality with a configurable damping factor.
//
// The engine is incremental: Add and Remove update the adjacency
// structure in O(authors-per-work²) time with no dependence on corpus
// size, and a Remove exactly inverts the matching Add, so an
// incrementally maintained graph is indistinguishable from one rebuilt
// from scratch (Fingerprint renders the canonical state byte-for-byte
// for that cross-check). Derived views — components, centrality — are cached and
// recomputed deterministically when the structure has changed.
//
// The package consumes the corpus rather than indexing it. It is the
// one co-author structure: the metrics tracker owns a Graph, feeds it
// every mutation, and reads collaboration counts back from it.
package graph

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
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

// node is the live per-heading state. Counters only — derived views are
// materialized on read.
type node struct {
	// adj maps co-author heading to the number of shared works.
	adj map[string]int
	// works counts works this heading appears on; the node exists while
	// it is positive (a solo author is an isolated node).
	works int
	// wdegree is the sum of adj weights, maintained incrementally.
	wdegree int
}

// Graph is the incremental coauthorship network engine. Mutations
// (Add, Remove, Rebuild, SetDamping) are not safe for concurrent use —
// the owning layer serializes them against everything else — but read
// methods may run concurrently with each other: the internal mutex
// guards the lazily (re)computed component and centrality caches, so
// callers holding only a read lock on the owning layer stay race-free.
type Graph struct {
	damping float64
	nodes   map[string]*node
	tracked map[model.WorkID]struct{}
	edges   int // distinct undirected pairs with weight > 0

	// mu guards the lazy caches below (comp and pr with their dirty
	// flags) during concurrent reads. Mutations run exclusively, so the
	// primary structures above need no lock.
	mu sync.Mutex

	// comp is the union-find parent map over headings. Additions union
	// incrementally; deletions mark it dirty and the next component query
	// rebuilds it from the adjacency structure.
	comp      map[string]string
	compDirty bool
	compCount int

	// pr caches the last PageRank vector; any mutation invalidates it.
	pr      map[string]float64
	prDirty bool

	// display memoizes heading construction during Rebuild; nil (a
	// plain Display pass-through) outside it.
	display model.DisplayMemo
	// hscratch is the reusable headings buffer. Mutations are serialized
	// by the owning layer and no caller retains the slice past its call,
	// so one buffer suffices.
	hscratch []string
}

// New returns an empty graph. A damping factor outside (0, 1) — NaN
// included — falls back to DefaultDamping.
func New(damping float64) *Graph {
	if !(damping > 0 && damping < 1) {
		damping = DefaultDamping
	}
	return &Graph{
		damping: damping,
		nodes:   make(map[string]*node),
		tracked: make(map[model.WorkID]struct{}),
		comp:    make(map[string]string),
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
func (g *Graph) Nodes() int { return len(g.nodes) }

// Edges returns the number of distinct collaborating pairs.
func (g *Graph) Edges() int { return g.edges }

// Works returns the number of works folded into the graph.
func (g *Graph) Works() int { return len(g.tracked) }

// headings returns one entry per distinct heading on w, in first-seen
// order — computed identically by Add and Remove so removal inverts
// addition exactly. A heading listed at several positions (a
// self-collaboration) counts once and earns no self-edge.
func (g *Graph) headings(w *model.Work) []string {
	out := g.hscratch[:0]
	for _, a := range w.Authors {
		h := g.heading(a)
		dup := false
		for _, x := range out {
			if x == h {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	g.hscratch = out
	return out
}

// heading returns a.Display(), memoized while a Rebuild is running.
func (g *Graph) heading(a model.Author) string { return g.display.Display(a) }

// Add folds w into the network in O(len(w.Authors)²) time (the
// quadratic term is the pairwise edge update; author lists are short)
// and reports whether it did. Adding an ID that is already tracked is a
// no-op that reports false.
func (g *Graph) Add(w *model.Work) bool {
	if w == nil || len(w.Authors) == 0 {
		return false
	}
	if _, dup := g.tracked[w.ID]; dup {
		return false
	}
	g.tracked[w.ID] = struct{}{}
	hs := g.headings(w)
	for _, h := range hs {
		n, ok := g.nodes[h]
		if !ok {
			n = &node{adj: make(map[string]int)}
			g.nodes[h] = n
			if !g.compDirty {
				g.comp[h] = h
				g.compCount++
			}
		}
		n.works++
	}
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			a, b := g.nodes[hs[i]], g.nodes[hs[j]]
			a.adj[hs[j]]++
			a.wdegree++
			b.adj[hs[i]]++
			b.wdegree++
			if a.adj[hs[j]] == 1 {
				g.edges++
				if !g.compDirty {
					g.union(hs[i], hs[j])
				}
			}
		}
	}
	g.prDirty = true
	return true
}

// Remove exactly inverts the Add of the same work and reports whether
// the ID was tracked; removing an untracked ID is a no-op. Deleting an
// edge or a node marks the component structure dirty; the next
// component query rebuilds it.
func (g *Graph) Remove(w *model.Work) bool {
	if w == nil || len(w.Authors) == 0 {
		return false
	}
	if _, ok := g.tracked[w.ID]; !ok {
		return false
	}
	delete(g.tracked, w.ID)
	hs := g.headings(w)
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			a, b := g.nodes[hs[i]], g.nodes[hs[j]]
			if a == nil || b == nil {
				continue
			}
			a.adj[hs[j]]--
			a.wdegree--
			b.adj[hs[i]]--
			b.wdegree--
			if a.adj[hs[j]] <= 0 {
				delete(a.adj, hs[j])
				delete(b.adj, hs[i])
				g.edges--
				g.compDirty = true
			}
		}
	}
	for _, h := range hs {
		n := g.nodes[h]
		if n == nil {
			continue
		}
		if n.works--; n.works <= 0 {
			delete(g.nodes, h)
			g.compDirty = true
		}
	}
	g.prDirty = true
	return true
}

// Rebuild resets the graph and re-adds the corpus in one pass — the
// recovery path when incremental state is suspect.
func (g *Graph) Rebuild(works []*model.Work) {
	// Presize for the common author-to-work ratio so a cold rebuild does
	// not pay map growth rehashes all the way up.
	g.nodes = make(map[string]*node, max(len(g.nodes), len(works)/3))
	g.tracked = make(map[model.WorkID]struct{}, len(works))
	g.comp = make(map[string]string, len(works)/3)
	g.edges, g.compCount = 0, 0
	g.compDirty, g.prDirty = false, true
	g.display = make(model.DisplayMemo)
	defer func() { g.display = nil }()
	for _, w := range works {
		g.Add(w)
	}
}

// ---- degree ----

// Degree returns the number of distinct co-authors of a heading.
func (g *Graph) Degree(heading string) (int, bool) {
	n, ok := g.nodes[heading]
	if !ok {
		return 0, false
	}
	return len(n.adj), true
}

// WeightedDegree returns the total shared-work count across all of a
// heading's collaborations.
func (g *Graph) WeightedDegree(heading string) (int, bool) {
	n, ok := g.nodes[heading]
	if !ok {
		return 0, false
	}
	return n.wdegree, true
}

// Neighbors returns a heading's co-authors with shared-work counts,
// heaviest first (ties broken by heading ascending).
func (g *Graph) Neighbors(heading string) []Neighbor {
	n, ok := g.nodes[heading]
	if !ok {
		return nil
	}
	out := make([]Neighbor, 0, len(n.adj))
	for h, w := range n.adj {
		out = append(out, Neighbor{Heading: h, Works: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Works != out[j].Works {
			return out[i].Works > out[j].Works
		}
		return out[i].Heading < out[j].Heading
	})
	return out
}

// EachNeighbor calls fn for each of a heading's co-authors with the
// shared-work count, in no particular order and without allocating.
func (g *Graph) EachNeighbor(heading string, fn func(coauthor string, works int)) {
	if n, ok := g.nodes[heading]; ok {
		for h, w := range n.adj {
			fn(h, w)
		}
	}
}

// Neighbor pairs a co-author heading with the number of shared works.
type Neighbor struct {
	Heading string `json:"heading"`
	Works   int    `json:"works"`
}

// ---- components (union-find with lazy rebuild) ----

// find resolves the union-find root with path compression.
func (g *Graph) find(h string) string {
	root := h
	for g.comp[root] != root {
		root = g.comp[root]
	}
	for g.comp[h] != root {
		g.comp[h], h = root, g.comp[h]
	}
	return root
}

// union merges the components of a and b.
func (g *Graph) union(a, b string) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return
	}
	// Deterministic orientation (smaller root wins) keeps the structure
	// independent of map iteration order.
	if rb < ra {
		ra, rb = rb, ra
	}
	g.comp[rb] = ra
	g.compCount--
}

// rebuildComponents recomputes the union-find from the adjacency
// structure, O(nodes + edges) — the lazy path after a deletion.
func (g *Graph) rebuildComponents() {
	g.comp = make(map[string]string, len(g.nodes))
	g.compCount = len(g.nodes)
	for h := range g.nodes {
		g.comp[h] = h
	}
	for h, n := range g.nodes {
		for other := range n.adj {
			g.union(h, other)
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
	if _, ok := g.nodes[a]; !ok {
		return false
	}
	if _, ok := g.nodes[b]; !ok {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.compDirty {
		g.rebuildComponents()
	}
	return g.find(a) == g.find(b)
}

// LargestComponent returns the size of the biggest connected component.
func (g *Graph) LargestComponent() int {
	if len(g.nodes) == 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.compDirty {
		g.rebuildComponents()
	}
	sizes := make(map[string]int, g.compCount)
	best := 0
	for h := range g.nodes {
		r := g.find(h)
		sizes[r]++
		if sizes[r] > best {
			best = sizes[r]
		}
	}
	return best
}

// ---- collaboration paths ----

// Path returns the shortest collaboration chain between two headings,
// endpoints included, and whether one exists. The distance is
// len(path)-1 collaborations (Erdős-style). A heading reaches itself
// with a single-element path. The union-find answers the reachability
// question first, so cross-component queries never pay for a BFS.
func (g *Graph) Path(from, to string) ([]string, bool) {
	if _, ok := g.nodes[from]; !ok {
		return nil, false
	}
	if _, ok := g.nodes[to]; !ok {
		return nil, false
	}
	if from == to {
		return []string{from}, true
	}
	if !g.SameComponent(from, to) {
		return nil, false
	}
	// BFS with sorted neighbor expansion: among equal-length paths the
	// lexicographically earliest is found, so results are deterministic.
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := make([]string, 0, len(g.nodes[cur].adj))
		for h := range g.nodes[cur].adj {
			if _, seen := prev[h]; !seen {
				next = append(next, h)
			}
		}
		sort.Strings(next)
		for _, h := range next {
			prev[h] = cur
			if h == to {
				var path []string
				for at := to; at != from; at = prev[at] {
					path = append(path, at)
				}
				path = append(path, from)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, true
			}
			queue = append(queue, h)
		}
	}
	return nil, false // unreachable: SameComponent said yes
}

// Distance returns the number of collaboration hops between two
// headings, or false when they are disconnected or unknown.
func (g *Graph) Distance(from, to string) (int, bool) {
	p, ok := g.Path(from, to)
	if !ok {
		return 0, false
	}
	return len(p) - 1, true
}

// ---- centrality (weighted PageRank) ----

// pageRank computes (or returns the cached) PageRank vector. Rank flows
// along edges proportional to their weight; isolated authors hold the
// teleport mass only. Iteration order is sorted, so the result is
// deterministic for a given structure. A fresh map is built on every
// recompute, so callers may keep reading a previously returned vector.
func (g *Graph) pageRank() map[string]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.prDirty && g.pr != nil {
		return g.pr
	}
	n := len(g.nodes)
	pr := make(map[string]float64, n)
	if n == 0 {
		g.pr, g.prDirty = pr, false
		return pr
	}
	order := make([]string, 0, n)
	for h := range g.nodes {
		order = append(order, h)
	}
	sort.Strings(order)
	for _, h := range order {
		pr[h] = 1 / float64(n)
	}
	d := g.damping
	base := (1 - d) / float64(n)
	next := make(map[string]float64, n)
	for iter := 0; iter < pageRankIters; iter++ {
		// Isolated nodes (weighted degree 0) have nowhere to send their
		// damped mass; redistribute it uniformly so rank still sums to 1.
		dangling := 0.0
		for _, h := range order {
			if g.nodes[h].wdegree == 0 {
				dangling += pr[h]
			}
		}
		spread := base + d*dangling/float64(n)
		for _, h := range order {
			next[h] = spread
		}
		for _, h := range order {
			node := g.nodes[h]
			if node.wdegree == 0 {
				continue
			}
			share := d * pr[h] / float64(node.wdegree)
			for other, w := range node.adj {
				next[other] += share * float64(w)
			}
		}
		delta := 0.0
		for _, h := range order {
			diff := next[h] - pr[h]
			if diff < 0 {
				diff = -diff
			}
			delta += diff
			pr[h] = next[h]
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
	if _, ok := g.nodes[heading]; !ok {
		return 0, false
	}
	return g.pageRank()[heading], true
}

// CentralAuthor pairs a heading with its centrality score.
type CentralAuthor struct {
	Heading string  `json:"heading"`
	Score   float64 `json:"score"`
}

// TopCentral returns up to limit authors by centrality descending (ties
// broken by heading ascending). limit <= 0 means all.
func (g *Graph) TopCentral(limit int) []CentralAuthor {
	pr := g.pageRank()
	out := make([]CentralAuthor, 0, len(pr))
	for h, s := range pr {
		out = append(out, CentralAuthor{Heading: h, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Heading < out[j].Heading
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
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
	v, e := len(g.nodes), g.edges
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
// work count and sorted weighted adjacency, plus the tracked work IDs —
// as a deterministic byte string. Two graphs over the same corpus are
// byte-identical here regardless of the mutation order that produced
// them; Verify paths compare an incremental graph against
// NewFromWorks this way.
func (g *Graph) Fingerprint() string {
	hs := make([]string, 0, len(g.nodes))
	for h := range g.nodes {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	var b strings.Builder
	for _, h := range hs {
		n := g.nodes[h]
		b.WriteString(h)
		writeInt(&b, n.works)
		ns := make([]string, 0, len(n.adj))
		for o := range n.adj {
			ns = append(ns, o)
		}
		sort.Strings(ns)
		for _, o := range ns {
			b.WriteByte('\t')
			b.WriteString(o)
			writeInt(&b, n.adj[o])
		}
		b.WriteByte('\n')
	}
	ids := make([]uint64, 0, len(g.tracked))
	for id := range g.tracked {
		ids = append(ids, uint64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
