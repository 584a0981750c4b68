package graph

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// mapGraph is the map-keyed adjacency the ID-keyed rows replaced, kept
// here only as the reference PageRank must match bit for bit.
type mapGraph struct {
	works map[string]int
	wdeg  map[string]int
	adj   map[string]map[string]int
}

func newMapGraph() *mapGraph {
	return &mapGraph{works: map[string]int{}, wdeg: map[string]int{}, adj: map[string]map[string]int{}}
}

// apply folds w in (n = 1) or out (n = -1), as Add and Remove do.
func (m *mapGraph) apply(w *model.Work, n int) {
	var hs []string
	for _, a := range w.Authors {
		h := a.Display()
		dup := false
		for _, x := range hs {
			dup = dup || x == h
		}
		if !dup {
			hs = append(hs, h)
		}
	}
	for i, a := range hs {
		for _, b := range hs[i+1:] {
			for _, p := range [2][2]string{{a, b}, {b, a}} {
				if m.adj[p[0]] == nil {
					m.adj[p[0]] = map[string]int{}
				}
				if m.adj[p[0]][p[1]] += n; m.adj[p[0]][p[1]] == 0 {
					delete(m.adj[p[0]], p[1])
				}
				m.wdeg[p[0]] += n
			}
		}
	}
	for _, h := range hs {
		if m.works[h] += n; m.works[h] == 0 {
			delete(m.works, h)
			delete(m.wdeg, h)
			delete(m.adj, h)
		}
	}
}

// pageRank is the map-keyed power iteration: outer loops in sorted
// heading order, each node pushing along its map in map order.
func (m *mapGraph) pageRank(d float64) map[string]float64 {
	n := len(m.works)
	pr := make(map[string]float64, n)
	order := make([]string, 0, n)
	for h := range m.works {
		order = append(order, h)
	}
	sort.Strings(order)
	for _, h := range order {
		pr[h] = 1 / float64(n)
	}
	base := (1 - d) / float64(n)
	next := make(map[string]float64, n)
	for iter := 0; iter < pageRankIters; iter++ {
		dangling := 0.0
		for _, h := range order {
			if m.wdeg[h] == 0 {
				dangling += pr[h]
			}
		}
		spread := base + d*dangling/float64(n)
		for _, h := range order {
			next[h] = spread
		}
		for _, h := range order {
			if m.wdeg[h] == 0 {
				continue
			}
			share := d * pr[h] / float64(m.wdeg[h])
			for other, w := range m.adj[h] {
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
	return pr
}

// samePageRank fails unless g scores every heading exactly as ref does.
func samePageRank(t *testing.T, stage string, g *Graph, ref *mapGraph) {
	t.Helper()
	want := ref.pageRank(g.Damping())
	if g.Nodes() != len(want) {
		t.Fatalf("%s: %d nodes, reference has %d", stage, g.Nodes(), len(want))
	}
	for h, s := range want {
		got, ok := g.Centrality(h)
		if !ok || math.Float64bits(got) != math.Float64bits(s) {
			t.Fatalf("%s: Centrality(%q) = %v (%t), reference %v", stage, h, got, ok, s)
		}
	}
}

// TestPageRankMatchesMapReference: PageRank over adjacency rows is
// bit-identical to the map-keyed iteration, on fresh graphs and after
// deletes free heading IDs that later additions reuse.
func TestPageRankMatchesMapReference(t *testing.T) {
	for _, n := range []int{1_000, 10_000} {
		all := gen.Generate(gen.Config{Seed: 5, Works: n + n/5, ZipfS: 1.1})
		works, extra := all[:n], all[n:]
		g, ref := New(0), newMapGraph()
		for _, w := range works {
			g.Add(w)
			ref.apply(w, 1)
		}
		samePageRank(t, "built", g, ref)

		for i, w := range works {
			if i%3 == 0 {
				g.Remove(w)
				ref.apply(w, -1)
			}
		}
		freed := len(g.free)
		if freed == 0 {
			t.Fatalf("corpus %d: deletes freed no heading IDs", n)
		}
		samePageRank(t, "after deletes", g, ref)

		for _, w := range extra {
			g.Add(w)
			ref.apply(w, 1)
		}
		for i := (len(works) - 1) / 3 * 3; i >= 0; i -= 3 {
			g.Add(works[i])
			ref.apply(works[i], 1)
		}
		if len(g.free) >= freed {
			t.Fatalf("corpus %d: freed IDs not reused (%d free of %d freed)", n, len(g.free), freed)
		}
		g.SetDamping(0.7)
		samePageRank(t, "after reuse", g, ref)
	}
}
