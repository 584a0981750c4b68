package authorindex

import (
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// graphFixture loads a small collaboration network:
//
//	Lewin—Peng—Cardi form a chain; Adler is isolated.
func graphFixture(t *testing.T) (*Index, []WorkID) {
	t.Helper()
	ix, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	var ids []WorkID
	add := func(page int, headings ...string) {
		w := Work{Title: "Work", Citation: Citation{Volume: 90, Page: page, Year: 1988}}
		for _, h := range headings {
			a, err := ParseAuthor(h)
			if err != nil {
				t.Fatal(err)
			}
			w.Authors = append(w.Authors, a)
		}
		id, err := ix.Add(w)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	add(1, "Lewin, Jeff L.", "Peng, Syd S.")
	add(2, "Peng, Syd S.", "Cardi, Vincent P.")
	add(3, "Adler, Mortimer J.")
	return ix, ids
}

func TestFacadeCollaborationPath(t *testing.T) {
	ix, _ := graphFixture(t)
	p, ok := ix.CollaborationPath("Lewin, Jeff L.", "Cardi, Vincent P.")
	if !ok || len(p) != 3 || p[1] != "Peng, Syd S." {
		t.Errorf("path = %v, %v", p, ok)
	}
	if _, ok := ix.CollaborationPath("Lewin, Jeff L.", "Adler, Mortimer J."); ok {
		t.Error("path to an isolated author")
	}
	if _, ok := ix.CollaborationPath("Lewin, Jeff L.", "Nobody, At All"); ok {
		t.Error("path to an unknown heading")
	}
	if _, ok := ix.CollaborationPath("", "Cardi, Vincent P."); ok {
		t.Error("path from an unparseable heading")
	}
	if _, ok := ix.CollaborationPath("Lewin, Jeff L.", ""); ok {
		t.Error("path to an unparseable heading")
	}
}

func TestFacadeGraphSummaryAndStats(t *testing.T) {
	ix, _ := graphFixture(t)
	s := ix.GraphSummary()
	if s.Nodes != 4 || s.Edges != 2 || s.Components != 2 || s.LargestComponent != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.Damping != DefaultDamping {
		t.Errorf("damping = %g", s.Damping)
	}
	if len(s.TopCentral) != 4 || s.TopCentral[0].Heading != "Peng, Syd S." {
		t.Errorf("topCentral = %+v", s.TopCentral)
	}
	st := ix.Stats()
	if st.GraphNodes != 4 || st.GraphEdges != 2 || st.GraphComponents != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.GraphNodes != st.Authors {
		t.Errorf("graph nodes %d != headings %d", st.GraphNodes, st.Authors)
	}
}

func TestFacadeCentralityAndCollaborators(t *testing.T) {
	ix, _ := graphFixture(t)
	mid, ok := ix.Centrality("Peng, Syd S.")
	if !ok || mid <= 0 {
		t.Fatalf("centrality = %g, %v", mid, ok)
	}
	end, _ := ix.Centrality("Lewin, Jeff L.")
	if end >= mid {
		t.Errorf("chain end %g outranks the middle %g", end, mid)
	}
	if _, ok := ix.Centrality("Nobody, At All"); ok {
		t.Error("centrality for unknown heading")
	}
	if _, ok := ix.Centrality(""); ok {
		t.Error("centrality for unparseable heading")
	}
	cs := ix.Collaborators("Peng, Syd S.")
	if len(cs) != 2 {
		t.Fatalf("collaborators = %+v", cs)
	}
	if cs := ix.Collaborators(""); cs != nil {
		t.Errorf("collaborators of unparseable heading = %+v", cs)
	}
	top := ix.TopCentral(2)
	if len(top) != 2 || top[0].Heading != "Peng, Syd S." {
		t.Errorf("topCentral = %+v", top)
	}
	ranked := ix.TopAuthors(ByCentrality, 1)
	if len(ranked) != 1 || ranked[0].Heading != "Peng, Syd S." {
		t.Errorf("TopAuthors(ByCentrality) = %+v", ranked)
	}
}

func TestFacadeVerifyGraph(t *testing.T) {
	ix, ids := graphFixture(t)
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	// Mutate and re-verify: delete the bridge work, add a new one.
	if err := ix.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(Work{
		Title:    "New Collaboration",
		Citation: Citation{Volume: 91, Page: 1, Year: 1989},
		Authors:  []Author{{Family: "Adler", Given: "Mortimer J."}, {Family: "Cardi", Given: "Vincent P."}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	ix.RebuildGraph()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeVerifyAfterRandomChurn asserts the acceptance criterion at
// the facade level: a randomized Add/Delete sequence leaves the
// incremental graph identical to a from-scratch rebuild (Verify
// compares fingerprints internally).
func TestFacadeVerifyAfterRandomChurn(t *testing.T) {
	ix, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	corpus := GenerateCorpus(CorpusConfig{Seed: 11, Works: 200, ZipfS: 1.1})
	r := rand.New(rand.NewSource(5))
	live := map[WorkID]bool{}
	for round := 0; round < 600; round++ {
		w := corpus[r.Intn(len(corpus))]
		if live[w.ID] {
			if err := ix.Delete(w.ID); err != nil {
				t.Fatal(err)
			}
			delete(live, w.ID)
		} else {
			if _, err := ix.Add(*w); err != nil {
				t.Fatal(err)
			}
			live[w.ID] = true
		}
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentGraphAccess drives every facade read of the tracker
// (metrics and the coauthorship graph it owns) concurrently with
// writers. Each of those reads goes through the engine's one tracker
// read site, ReadTrackers; under -race a read that escaped the tracker
// lock, or a lazy-cache write that leaks past it, is flagged here.
func TestConcurrentGraphAccess(t *testing.T) {
	ix, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	corpus := GenerateCorpus(CorpusConfig{Seed: 13, Works: 100, ZipfS: 1.1})
	for _, w := range corpus[:50] {
		if _, err := ix.Add(*w); err != nil {
			t.Fatal(err)
		}
	}
	heading := func(j int) string { return corpus[j%len(corpus)].Authors[0].Display() }
	reads := []func(j int){
		func(j int) { ix.AuthorMetrics(heading(j)) },
		func(int) { ix.MetricsSummary() },
		func(j int) { ix.Centrality(heading(j)) },
		func(j int) { ix.Collaborators(heading(j)) },
		func(int) { ix.TopCentral(5) },
		func(int) { ix.TopAuthors(ByWeighted, 5) },
		func(int) { ix.TopAuthors(ByCentrality, 5) },
		func(int) { ix.GraphSummary() },
		func(j int) { ix.CollaborationPath(heading(0), heading(j)) },
		func(int) { ix.Stats() },
		func(int) {
			if err := ix.Render(io.Discard, RenderOptions{Format: Text, Statistics: true, Network: true}); err != nil {
				t.Error(err)
			}
		},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 2*len(reads); j++ {
				reads[(i+j)%len(reads)](j)
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; j < 50; j += 2 {
				if _, err := ix.Add(*corpus[50+j]); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsBadDamping(t *testing.T) {
	for _, d := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := Open("", &Options{GraphDamping: d}); err == nil {
			t.Errorf("damping %g accepted", d)
		}
	}
	ix, err := Open("", &Options{GraphDamping: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if s := ix.GraphSummary(); s.Damping != 0.5 {
		t.Errorf("damping = %g, want 0.5", s.Damping)
	}
}
