package graph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// work builds a test work with one author heading per family name.
func work(id model.WorkID, families ...string) *model.Work {
	w := &model.Work{ID: id, Title: "T", Citation: model.Citation{Volume: 1, Page: int(id), Year: 1990}}
	for _, f := range families {
		w.Authors = append(w.Authors, model.Author{Family: f})
	}
	return w
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.Nodes() != 0 || g.Edges() != 0 || g.Components() != 0 || g.LargestComponent() != 0 {
		t.Fatalf("empty graph not empty: %+v", g.Summarize())
	}
	if _, ok := g.Path("A", "B"); ok {
		t.Error("path in empty graph")
	}
	if _, ok := g.Centrality("A"); ok {
		t.Error("centrality in empty graph")
	}
	if len(g.TopCentral(5)) != 0 {
		t.Error("central authors in empty graph")
	}
	s := g.Summarize()
	if s.Density != 0 || s.Works != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestAddRemoveBasics(t *testing.T) {
	g := New(0)
	g.Add(work(1, "A", "B"))
	g.Add(work(2, "A", "B"))
	g.Add(work(3, "B", "C"))
	g.Add(work(4, "D"))

	if g.Nodes() != 4 || g.Edges() != 2 || g.Works() != 3+1 {
		t.Fatalf("nodes=%d edges=%d works=%d", g.Nodes(), g.Edges(), g.Works())
	}
	if d := len(g.Neighbors("B")); d != 2 {
		t.Errorf("deg(B) = %d, want 2", d)
	}
	if wd := g.wdeg[g.ids["A"]]; wd != 2 {
		t.Errorf("wdeg(A) = %d, want 2 (two shared works with B)", wd)
	}
	if g.Components() != 2 { // {A,B,C} and {D}
		t.Errorf("components = %d, want 2", g.Components())
	}
	if g.LargestComponent() != 3 {
		t.Errorf("largest = %d, want 3", g.LargestComponent())
	}

	// Duplicate add is a no-op.
	g.Add(work(1, "A", "B"))
	if g.Works() != 4 {
		t.Errorf("duplicate add changed works to %d", g.Works())
	}

	ns := g.Neighbors("B")
	if len(ns) != 2 || ns[0].Heading != "A" || ns[0].Works != 2 || ns[1].Heading != "C" {
		t.Errorf("neighbors(B) = %+v", ns)
	}

	// Removing work 2 lowers the A–B weight but keeps the edge.
	g.Remove(work(2, "A", "B"))
	if g.Edges() != 2 {
		t.Errorf("edges after weight drop = %d, want 2", g.Edges())
	}
	// Removing an untracked ID is a no-op.
	g.Remove(work(99, "A", "B"))
	if g.Works() != 3 {
		t.Errorf("untracked remove changed works to %d", g.Works())
	}
	// Removing work 1 deletes the A–B edge — and A itself, which
	// appeared on no other work.
	g.Remove(work(1, "A", "B"))
	if g.Edges() != 1 {
		t.Errorf("edges after edge delete = %d, want 1", g.Edges())
	}
	if _, ok := g.ids["A"]; ok || g.Neighbors("A") != nil {
		t.Error("A still present after its last work was removed")
	}
	if g.Components() != 2 { // {B,C} {D}
		t.Errorf("components = %d, want 2", g.Components())
	}
}

// TestRemovalSplitsComponent covers the lazy union-find rebuild: cutting
// the bridge of a path graph must split its component in two.
func TestRemovalSplitsComponent(t *testing.T) {
	g := New(0)
	g.Add(work(1, "A", "B"))
	g.Add(work(2, "B", "C")) // bridge
	g.Add(work(3, "C", "D"))
	if g.Components() != 1 {
		t.Fatalf("components = %d, want 1", g.Components())
	}
	if !g.SameComponent("A", "D") {
		t.Fatal("A and D should be connected")
	}
	g.Remove(work(2, "B", "C"))
	if g.Components() != 2 {
		t.Errorf("components after cut = %d, want 2", g.Components())
	}
	if g.SameComponent("A", "D") {
		t.Error("A and D still connected after bridge removal")
	}
	if _, ok := g.Path("A", "D"); ok {
		t.Error("path exists across severed bridge")
	}
	if p, ok := g.Path("A", "B"); !ok || len(p) != 2 {
		t.Errorf("path A-B = %v, %v", p, ok)
	}
	// Re-adding the bridge reconnects (additions union incrementally on
	// top of the lazily rebuilt state).
	g.Add(work(2, "B", "C"))
	if g.Components() != 1 || !g.SameComponent("A", "D") {
		t.Errorf("components after re-add = %d", g.Components())
	}
}

// TestSelfCollaboration: a heading listed twice on one work counts once
// and earns no self-edge.
func TestSelfCollaboration(t *testing.T) {
	g := New(0)
	g.Add(work(1, "A", "A"))
	if g.Nodes() != 1 || g.Edges() != 0 {
		t.Fatalf("nodes=%d edges=%d, want 1/0", g.Nodes(), g.Edges())
	}
	if _, ok := g.ids["A"]; !ok || len(g.Neighbors("A")) != 0 {
		t.Errorf("deg(A) = %d, want 0", len(g.Neighbors("A")))
	}
	g.Add(work(2, "A", "B", "A"))
	if g.Edges() != 1 {
		t.Errorf("edges = %d, want 1 (A-B once)", g.Edges())
	}
	if wd := g.wdeg[g.ids["A"]]; wd != 1 {
		t.Errorf("wdeg(A) = %d, want 1", wd)
	}
	g.Remove(work(2, "A", "B", "A"))
	g.Remove(work(1, "A", "A"))
	if g.Nodes() != 0 || g.Edges() != 0 {
		t.Errorf("graph not empty after inverse removes: %+v", g.Summarize())
	}
}

func TestPath(t *testing.T) {
	g := New(0)
	g.Add(work(1, "A", "B"))
	g.Add(work(2, "B", "C"))
	g.Add(work(3, "C", "D"))
	g.Add(work(4, "A", "E"))
	g.Add(work(5, "E", "D"))
	g.Add(work(6, "X", "Y")) // disconnected island

	// The short route via E beats the longer chain via B and C.
	p, ok := g.Path("A", "D")
	if !ok || len(p) != 3 || p[1] != "E" {
		t.Fatalf("path A-D = %v, want [A E D]", p)
	}
	for i := 0; i < 10; i++ {
		again, _ := g.Path("A", "D")
		for j := range p {
			if again[j] != p[j] {
				t.Fatalf("nondeterministic path: %v vs %v", again, p)
			}
		}
	}
	if p, ok := g.Path("A", "D"); !ok || len(p)-1 != 2 {
		t.Errorf("distance A-D = %d, want 2", len(p)-1)
	}
	if p, ok := g.Path("A", "C"); !ok || len(p)-1 != 2 {
		t.Errorf("distance A-C = %d, want 2", len(p)-1)
	}
	if p, ok := g.Path("A", "A"); !ok || len(p) != 1 {
		t.Errorf("self path = %v", p)
	}
	if _, ok := g.Path("A", "X"); ok {
		t.Error("path to disconnected island")
	}
	if _, ok := g.Path("A", "Nobody"); ok {
		t.Error("path to unknown heading")
	}
	if _, ok := g.Path("Nobody", "A"); ok {
		t.Error("path from unknown heading")
	}
}

func TestCentrality(t *testing.T) {
	g := New(0)
	// Star: H collaborates with each of S1..S4; H must rank first.
	g.Add(work(1, "H", "S1"))
	g.Add(work(2, "H", "S2"))
	g.Add(work(3, "H", "S3"))
	g.Add(work(4, "H", "S4"))
	g.Add(work(5, "Loner"))

	top := g.TopCentral(0)
	if len(top) != 6 {
		t.Fatalf("top lists %d authors, want 6", len(top))
	}
	if top[0].Heading != "H" {
		t.Errorf("most central = %s, want H", top[0].Heading)
	}
	sum := 0.0
	for _, c := range top {
		sum += c.Score
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("centrality sums to %g, want 1", sum)
	}
	// Spokes are symmetric: identical scores.
	scores := map[string]float64{}
	for _, c := range top {
		scores[c.Heading] = c.Score
	}
	for _, s := range []string{"S2", "S3", "S4"} {
		if math.Abs(scores[s]-scores["S1"]) > 1e-12 {
			t.Errorf("asymmetric spoke scores: %s=%g S1=%g", s, scores[s], scores["S1"])
		}
	}
	if scores["Loner"] >= scores["S1"] {
		t.Errorf("isolated author outranks a spoke: %g >= %g", scores["Loner"], scores["S1"])
	}
	if c, ok := g.Centrality("H"); !ok || c != scores["H"] {
		t.Errorf("Centrality(H) = %g, want %g", c, scores["H"])
	}
	if len(g.TopCentral(2)) != 2 {
		t.Error("limit not applied")
	}
}

func TestDamping(t *testing.T) {
	g := New(2.5) // invalid: falls back
	if g.Damping() != DefaultDamping {
		t.Errorf("damping = %g, want default", g.Damping())
	}
	g.Add(work(1, "H", "S1"))
	g.Add(work(2, "H", "S2"))
	before, _ := g.Centrality("H")
	g.SetDamping(0.5)
	after, _ := g.Centrality("H")
	if before == after {
		t.Error("damping change did not move scores")
	}
	g.SetDamping(-1)
	if g.Damping() != DefaultDamping {
		t.Errorf("invalid SetDamping gave %g", g.Damping())
	}
	g.SetDamping(math.NaN())
	if g.Damping() != DefaultDamping {
		t.Errorf("NaN SetDamping gave %g", g.Damping())
	}
	if New(math.NaN()).Damping() != DefaultDamping {
		t.Error("New(NaN) kept NaN damping")
	}
	// Lower damping flattens toward uniform: H's advantage shrinks.
	if !(after < before) {
		t.Errorf("damping 0.5 should shrink hub score: %g -> %g", before, after)
	}
}

// TestIncrementalMatchesRebuild is the core invariant: after a
// randomized Add/Remove sequence the incremental state is byte-identical
// to a from-scratch rebuild over the surviving works.
func TestIncrementalMatchesRebuild(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 7, Works: 400, ZipfS: 1.1})
	g := New(0)
	r := rand.New(rand.NewSource(42))
	live := make(map[int]bool)
	for round := 0; round < 2000; round++ {
		i := r.Intn(len(works))
		if live[i] {
			g.Remove(works[i])
			delete(live, i)
		} else {
			g.Add(works[i])
			live[i] = true
		}
	}
	var survivors []*model.Work
	for i := range works {
		if live[i] {
			survivors = append(survivors, works[i])
		}
	}
	fresh := NewFromWorks(0, survivors)
	if g.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("incremental graph state differs from from-scratch rebuild")
	}
	if g.Components() != fresh.Components() {
		t.Errorf("components: incremental %d, rebuild %d", g.Components(), fresh.Components())
	}
	if g.LargestComponent() != fresh.LargestComponent() {
		t.Errorf("largest: incremental %d, rebuild %d", g.LargestComponent(), fresh.LargestComponent())
	}
	gt, ft := g.TopCentral(10), fresh.TopCentral(10)
	for i := range gt {
		if gt[i] != ft[i] {
			t.Errorf("top-central[%d]: incremental %+v, rebuild %+v", i, gt[i], ft[i])
		}
	}
	// Removing everything returns to the empty state.
	for i := range works {
		if live[i] {
			g.Remove(works[i])
		}
	}
	if g.Fingerprint() != New(0).Fingerprint() {
		t.Error("graph not empty after removing every work")
	}
}

func TestRebuildRecovery(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 3, Works: 100, ZipfS: 1.1})
	g := NewFromWorks(0, works)
	fp := g.Fingerprint()
	sum := g.Summarize()
	g.Rebuild(works)
	if g.Fingerprint() != fp {
		t.Error("Rebuild changed the fingerprint")
	}
	if got := g.Summarize(); got.Components != sum.Components || got.Edges != sum.Edges {
		t.Errorf("Rebuild changed summary: %+v vs %+v", got, sum)
	}
}

func TestSummarize(t *testing.T) {
	g := New(0)
	g.Add(work(1, "A", "B"))
	g.Add(work(2, "C"))
	s := g.Summarize()
	if s.Nodes != 3 || s.Edges != 1 || s.Components != 2 || s.LargestComponent != 2 {
		t.Errorf("summary = %+v", s)
	}
	want := 2 * 1.0 / (3 * 2) // 2E / V(V-1)
	if math.Abs(s.Density-want) > 1e-12 {
		t.Errorf("density = %g, want %g", s.Density, want)
	}
	if s.Damping != DefaultDamping || len(s.TopCentral) != 3 {
		t.Errorf("summary = %+v", s)
	}
}
