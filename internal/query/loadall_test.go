package query

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/collate"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
)

// engineFingerprint serializes everything observable about an engine —
// the author index (entries, work order, see-alsos), the citation and
// year trees, the subject postings, the inverted index, the metrics
// tracker and the coauthorship graph — so two engines can be compared
// byte for byte.
func engineFingerprint(e *Engine) string {
	var b strings.Builder
	for _, sec := range e.idx.Sections() {
		fmt.Fprintf(&b, "section %c\n", sec.Letter)
		for _, entry := range sec.Entries {
			fmt.Fprintf(&b, " %s student=%v\n", entry.Author.Display(), entry.Author.Student)
			for _, w := range entry.Works {
				fmt.Fprintf(&b, "  work %d %q %d:%d (%d) %v %v\n",
					w.ID, w.Title, w.Citation.Volume, w.Citation.Page, w.Citation.Year, w.Kind, w.Subjects)
			}
			for _, sa := range entry.SeeAlso {
				fmt.Fprintf(&b, "  seealso %s\n", sa.Display())
			}
		}
	}
	fmt.Fprintf(&b, "byCitation:")
	e.byCitation.Ascend(func(k []byte, we *workEntry) bool {
		fmt.Fprintf(&b, " %d/%x", we.w.ID, k)
		return true
	})
	fmt.Fprintf(&b, "\nbyYear:")
	e.byYear.Ascend(func(k []byte, we *workEntry) bool {
		fmt.Fprintf(&b, " %d/%x", we.w.ID, k)
		return true
	})
	fmt.Fprintf(&b, "\nsubjects:\n")
	e.bySubject.Ascend(func(k []byte, p *subjectPosting) bool {
		fmt.Fprintf(&b, " %x %q:", k, p.display)
		for _, we := range p.refs {
			fmt.Fprintf(&b, " %d", we.w.ID)
		}
		fmt.Fprintf(&b, "\n")
		return true
	})
	fmt.Fprintf(&b, "inv: %d terms, %d docs\n", e.inv.Terms(), e.inv.Docs())
	for _, q := range []string{"surface mining", "coal or gas", "mining -surface", "reclam*", "liability", "taxation"} {
		fmt.Fprintf(&b, "search %q:", q)
		for _, we := range e.inv.Search(q) {
			fmt.Fprintf(&b, " %d", we.w.ID)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "metrics: %+v\n", e.met.Summary())
	for _, m := range e.met.TopAuthors(metrics.ByWorks, 0) {
		fmt.Fprintf(&b, " %+v\n", m)
	}
	fmt.Fprintf(&b, "graph: %s damping=%g\n", e.Graph().Fingerprint(), e.Graph().Damping())
	fmt.Fprintf(&b, "works: %d\n", e.byID.Len())
	return b.String()
}

func loadAllCorpus(t *testing.T, n int) []*model.Work {
	t.Helper()
	works := gen.Generate(gen.Config{Seed: 21, Works: n, ZipfS: 1.1})
	// Equal-citation-key ties and duplicate subjects exercise the
	// order-sensitive paths bulk loading must reproduce exactly.
	tied := *works[0].Clone()
	tied.ID = model.WorkID(n + 500)
	works = append(works, &tied)
	doubledSubj := *works[1].Clone()
	doubledSubj.ID = model.WorkID(n + 501)
	doubledSubj.Subjects = append(doubledSubj.Subjects, doubledSubj.Subjects[0])
	works = append(works, &doubledSubj)
	return works
}

// TestLoadAllEquivalence is the tentpole's correctness proof at the
// engine level: LoadAll must produce an engine byte-identical to one
// built by sequential Add — across every index, the metrics tracker and
// the graph — and the two must stay identical under subsequent
// mutations.
func TestLoadAllEquivalence(t *testing.T) {
	works := loadAllCorpus(t, 1200)
	inc := New(collate.Default())
	for _, w := range works {
		if err := inc.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	bulk := New(collate.Default())
	clones := make([]*model.Work, len(works))
	for i, w := range works {
		clones[i] = w.Clone()
	}
	if err := bulk.LoadAll(clones); err != nil {
		t.Fatal(err)
	}
	if got, want := engineFingerprint(bulk), engineFingerprint(inc); got != want {
		t.Fatalf("bulk-loaded engine diverges from incrementally-built engine:\n%s", firstDiff(got, want))
	}

	// Subsequent mutations: adds (fresh and replacing), removes.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 250; i++ {
		switch i % 4 {
		case 0:
			w := works[r.Intn(len(works))]
			inc.Remove(w.ID)
			bulk.Remove(w.ID)
		case 1: // replace an existing ID with new content
			w := works[r.Intn(len(works))].Clone()
			w.Title = fmt.Sprintf("Replaced Title %d", i)
			if err := inc.Add(w); err != nil {
				t.Fatal(err)
			}
			if err := bulk.Add(w.Clone()); err != nil {
				t.Fatal(err)
			}
		default:
			w := &model.Work{
				ID:       model.WorkID(50_000 + i),
				Title:    fmt.Sprintf("Post-Load Work %d on Severance Taxation", i),
				Citation: model.Citation{Volume: 70 + i%9, Page: i + 1, Year: 1967 + i%9},
				Authors:  []model.Author{{Family: fmt.Sprintf("Late%d", i%41), Given: "Z."}},
				Subjects: []string{"Severance Taxation"},
			}
			if err := inc.Add(w); err != nil {
				t.Fatal(err)
			}
			if err := bulk.Add(w.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := engineFingerprint(bulk), engineFingerprint(inc); got != want {
		t.Fatalf("engines diverge after post-load mutations:\n%s", firstDiff(got, want))
	}
}

// TestLoadAllScheme: a bulk load must respect a non-default metrics
// scheme and graph damping configured before the load.
func TestLoadAllSchemeAndDamping(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 6, Works: 300, ZipfS: 1.1})
	inc := NewWithScheme(collate.Default(), metrics.Geometric)
	inc.Graph().SetDamping(0.7)
	for _, w := range works {
		if err := inc.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	bulk := NewWithScheme(collate.Default(), metrics.Geometric)
	bulk.Graph().SetDamping(0.7)
	clones := make([]*model.Work, len(works))
	for i, w := range works {
		clones[i] = w.Clone()
	}
	if err := bulk.LoadAll(clones); err != nil {
		t.Fatal(err)
	}
	if got, want := engineFingerprint(bulk), engineFingerprint(inc); got != want {
		t.Fatalf("engines diverge under non-default scheme/damping:\n%s", firstDiff(got, want))
	}
}

func TestLoadAllRejections(t *testing.T) {
	ok := &model.Work{
		ID:       1,
		Title:    "Fine",
		Citation: model.Citation{Volume: 1, Page: 1, Year: 1990},
		Authors:  []model.Author{{Family: "Smith", Given: "A."}},
	}
	cases := []struct {
		name  string
		works []*model.Work
	}{
		{"invalid work", []*model.Work{{ID: 2}}},
		{"zero ID", []*model.Work{{
			Title:    "No ID",
			Citation: model.Citation{Volume: 1, Page: 1, Year: 1990},
			Authors:  []model.Author{{Family: "Jones", Given: "B."}},
		}}},
		{"duplicate IDs", []*model.Work{ok, ok.Clone()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(collate.Default())
			if err := e.LoadAll(tc.works); err == nil {
				t.Fatal("LoadAll accepted a bad corpus")
			}
			// The engine must be left empty and fully usable.
			if e.Len() != 0 {
				t.Fatalf("engine holds %d works after failed load", e.Len())
			}
			if err := e.Add(ok.Clone()); err != nil {
				t.Fatalf("engine unusable after failed load: %v", err)
			}
			if got := e.met.Summary().Works; got != 1 {
				t.Fatalf("metrics track %d works after failed load + Add", got)
			}
		})
	}
}

func TestLoadAllNonEmptyEngineRejected(t *testing.T) {
	e := New(collate.Default())
	w := &model.Work{
		ID:       1,
		Title:    "Already Here",
		Citation: model.Citation{Volume: 1, Page: 1, Year: 1990},
		Authors:  []model.Author{{Family: "Smith", Given: "A."}},
	}
	if err := e.Add(w); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadAll([]*model.Work{w.Clone()}); err == nil {
		t.Fatal("LoadAll accepted a non-empty engine")
	}

	// A heading that exists only to carry a cross-reference must block
	// the load too — replacing the index would silently discard it.
	e2 := New(collate.Default())
	if err := e2.Index().AddSeeAlso(
		model.Author{Family: "Mountney", Given: "Marion"},
		model.Author{Family: "Crain-Mountney", Given: "Marion"},
	); err != nil {
		t.Fatal(err)
	}
	if err := e2.LoadAll([]*model.Work{w.Clone()}); err == nil {
		t.Fatal("LoadAll accepted an engine holding a see-also-only heading")
	}
}

func TestLoadAllEmptyCorpus(t *testing.T) {
	e := New(collate.Default())
	if err := e.LoadAll(nil); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d", e.Len())
	}
	if got := e.TitleSearch("anything", 10); len(got) != 0 {
		t.Fatalf("search on empty engine = %v", got)
	}
}

// TestLoadAllSearchPaths drives the public query surfaces of a
// bulk-loaded engine against an incrementally-built reference.
func TestLoadAllSearchPaths(t *testing.T) {
	works := loadAllCorpus(t, 800)
	inc := New(collate.Default())
	for _, w := range works {
		if err := inc.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	bulk := New(collate.Default())
	clones := make([]*model.Work, len(works))
	for i, w := range works {
		clones[i] = w.Clone()
	}
	if err := bulk.LoadAll(clones); err != nil {
		t.Fatal(err)
	}
	checkSame := func(name string, a, b []*model.Work) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d results", name, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s: result %d diverges: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	checkSame("TitleSearch", bulk.TitleSearch("surface mining", 50), inc.TitleSearch("surface mining", 50))
	checkSame("YearRange", bulk.YearRange(1967, 1975, 0), inc.YearRange(1967, 1975, 0))
	checkSame("Volume", bulk.VolumeView(context.Background(), 71, 0), inc.VolumeView(context.Background(), 71, 0))
	subjects := inc.Subjects()
	if bs := bulk.Subjects(); len(bs) != len(subjects) {
		t.Fatalf("Subjects: %d vs %d", len(bs), len(subjects))
	}
	for _, sc := range subjects {
		checkSame("BySubject "+sc.Subject, bulk.BySubjectView(context.Background(), sc.Subject, 0), inc.BySubjectView(context.Background(), sc.Subject, 0))
	}
	if a, b := bulk.AuthorPrefix("s", 25), inc.AuthorPrefix("s", 25); len(a) != len(b) {
		t.Fatalf("AuthorPrefix: %d vs %d", len(a), len(b))
	}
}

// firstDiff trims two long fingerprints to the first line where they
// diverge, for readable failures.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
