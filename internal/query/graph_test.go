package query

import (
	"testing"

	"repro/internal/collate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
)

func graphWork(id model.WorkID, families ...string) *model.Work {
	w := &model.Work{ID: id, Title: "Work", Citation: model.Citation{Volume: 1, Page: int(id), Year: 1990}}
	for _, f := range families {
		w.Authors = append(w.Authors, model.Author{Family: f, Given: "A."})
	}
	return w
}

func TestEngineFeedsGraph(t *testing.T) {
	e := New(collate.Default())
	for _, w := range []*model.Work{
		graphWork(1, "Lewin", "Peng"),
		graphWork(2, "Peng", "Cardi"),
		graphWork(3, "Solo"),
	} {
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	g := e.Graph()
	if g.Nodes() != 4 || g.Edges() != 2 {
		t.Fatalf("nodes=%d edges=%d", g.Nodes(), g.Edges())
	}
	// The graph's edge count and the metrics tracker's pair count are
	// independently maintained views of the same structure.
	if pairs := e.Metrics().Summary().Pairs; pairs != g.Edges() {
		t.Errorf("metrics pairs %d != graph edges %d", pairs, g.Edges())
	}

	p, ok := e.CollaborationPath("Lewin, A.", "Cardi, A.")
	if !ok || len(p) != 3 || p[1] != "Peng, A." {
		t.Errorf("path = %v, %v", p, ok)
	}
	if _, ok := e.CollaborationPath("Lewin, A.", "Solo, A."); ok {
		t.Error("path to disconnected author")
	}
	if _, ok := e.CollaborationPath("", "Cardi, A."); ok {
		t.Error("path from unparseable heading")
	}
	if c, ok := e.Centrality("Peng, A."); !ok || c <= 0 {
		t.Errorf("centrality = %g, %v", c, ok)
	}

	// Replacing a work (re-Add with same ID) keeps the graph exact.
	if err := e.Add(graphWork(2, "Peng", "Adler")); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.HeadingIDs()["Cardi, A."]; ok {
		t.Error("Cardi survived replacement of its only work")
	}
	if d := len(g.Neighbors("Adler, A.")); d != 1 {
		t.Errorf("deg(Adler) = %d", d)
	}

	// Removal feeds the graph too.
	e.Remove(3)
	if g.Nodes() != 3 {
		t.Errorf("nodes after remove = %d, want 3", g.Nodes())
	}
}

func TestTopAuthorsByCentrality(t *testing.T) {
	e := New(collate.Default())
	// Hub collaborates with three spokes; a prolific loner has more works.
	works := []*model.Work{
		graphWork(1, "Hub", "SpokeA"),
		graphWork(2, "Hub", "SpokeB"),
		graphWork(3, "Hub", "SpokeC"),
		graphWork(4, "Loner"),
		graphWork(5, "Loner"),
		graphWork(6, "Loner"),
		graphWork(7, "Loner"),
	}
	for _, w := range works {
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	top := e.TopAuthors(metrics.ByCentrality, 3)
	if len(top) != 3 {
		t.Fatalf("got %d ranked authors", len(top))
	}
	if top[0].Heading != "Hub, A." {
		t.Errorf("most central = %s, want Hub", top[0].Heading)
	}
	// The snapshots are full metrics snapshots, ordered by the graph.
	if top[0].Works != 3 || top[0].Collaborators != 3 {
		t.Errorf("snapshot = %+v", top[0])
	}
	byWorks := e.TopAuthors(metrics.ByWorks, 1)
	if byWorks[0].Heading != "Loner, A." {
		t.Errorf("most prolific = %s, want Loner", byWorks[0].Heading)
	}
}

// TestRebuildGraph: through adds, a replacement and a removal, the
// incrementally maintained graph stays equal to a from-scratch rebuild
// over the indexed corpus.
func TestRebuildGraph(t *testing.T) {
	e := New(collate.Default())
	for _, w := range []*model.Work{
		graphWork(1, "A", "B"),
		graphWork(2, "B", "C"),
		graphWork(3, "C", "D"),
		graphWork(2, "B", "D"),
	} {
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	e.Remove(3)
	if e.Graph().Fingerprint() != graph.NewFromWorks(0, e.AllWorks()).Fingerprint() {
		t.Error("engine graph differs from a from-scratch build")
	}
}
