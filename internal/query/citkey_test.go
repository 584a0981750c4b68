package query

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/collate"
	"repro/internal/model"
)

// refLess is the classic result comparator the precomputed key replaces:
// Citation.Compare, then title, then ID. Every ordered read must stay
// byte-identical to it.
func refLess(a, b *model.Work) bool {
	if c := a.Citation.Compare(b.Citation); c != 0 {
		return c < 0
	}
	if a.Title != b.Title {
		return a.Title < b.Title
	}
	return a.ID < b.ID
}

func randWork(r *rand.Rand, id model.WorkID) *model.Work {
	titles := []string{
		"Surface Mining", "Surface Mining Reclamation", "abc", "abcd",
		"Zoning", "zoning", "École Études", "a\x00b", "a\x00", "a",
		"Double Jeopardy Revisited", "", "\x00",
	}
	return &model.Work{
		ID:    id,
		Title: titles[r.Intn(len(titles))],
		Citation: model.Citation{
			Volume: 1 + r.Intn(5),
			Page:   1 + r.Intn(7),
			Year:   1970 + r.Intn(4),
		},
	}
}

// TestCitationKeyMatchesCompare is the citation-order invariant property
// test: sorting randomized works by the precomputed key (bytes.Compare)
// must order them exactly as the classic comparator does. The title pool
// deliberately includes prefix pairs ("abc"/"abcd"), NUL bytes and empty
// titles, and the citation ranges are tight so ties at every tier occur.
func TestCitationKeyMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		works := make([]*model.Work, 200)
		for i := range works {
			works[i] = randWork(r, model.WorkID(r.Uint64()))
		}
		byKey := append([]*model.Work(nil), works...)
		keys := make(map[*model.Work][]byte, len(works))
		for _, w := range works {
			keys[w] = citationKey(w)
		}
		sort.Slice(byKey, func(i, j int) bool { return bytes.Compare(keys[byKey[i]], keys[byKey[j]]) < 0 })
		byRef := append([]*model.Work(nil), works...)
		sort.Slice(byRef, func(i, j int) bool { return refLess(byRef[i], byRef[j]) })
		for i := range byKey {
			if byKey[i] != byRef[i] {
				t.Fatalf("round %d: order diverges at %d:\n key order: %v (title %q)\n ref order: %v (title %q)",
					round, i, byKey[i], byKey[i].Title, byRef[i], byRef[i].Title)
			}
		}
	}
}

// TestCitationKeyUnique: keys embed the ID, so no two distinct works may
// collide even with identical citations and titles.
func TestCitationKeyUnique(t *testing.T) {
	a := &model.Work{ID: 1, Title: "Same", Citation: model.Citation{Volume: 1, Page: 1, Year: 1990}}
	b := &model.Work{ID: 2, Title: "Same", Citation: model.Citation{Volume: 1, Page: 1, Year: 1990}}
	ka, kb := citationKey(a), citationKey(b)
	if bytes.Equal(ka, kb) {
		t.Fatal("identical keys for distinct IDs")
	}
	if bytes.Compare(ka, kb) >= 0 {
		t.Fatal("ID tiebreak ordered 2 before 1")
	}
}

// engineQueriesMatchReference cross-checks every ordered read against a
// reference filter-sort-truncate over the raw corpus.
func TestEngineQueriesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := New(collate.Default())
	subjects := []string{"Surface Mining Reclamation", "Double Jeopardy", "Équité"}
	var corpus []*model.Work
	for i := 1; i <= 400; i++ {
		w := randWork(r, model.WorkID(i))
		if w.Title == "" || bytes.ContainsRune([]byte(w.Title), 0) {
			w.Title = "Untitled Matter" // engine validation rejects empty titles
		}
		w.Authors = []model.Author{{Family: "Fam", Given: "G."}}
		// Random citations decorrelate volume from year, forcing the
		// multi-year merge path to actually reorder.
		w.Citation = model.Citation{Volume: 1 + r.Intn(20), Page: 1 + r.Intn(300), Year: 1970 + r.Intn(10)}
		if r.Intn(2) == 0 {
			w.Subjects = []string{subjects[r.Intn(len(subjects))]}
		}
		corpus = append(corpus, w)
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	reference := func(match func(*model.Work) bool, limit int) []*model.Work {
		var out []*model.Work
		for _, w := range corpus {
			if match(w) {
				out = append(out, w)
			}
		}
		sort.Slice(out, func(i, j int) bool { return refLess(out[i], out[j]) })
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out
	}
	check := func(name string, got, want []*model.Work) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d works, want %d", name, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: result %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	for _, limit := range []int{0, 1, 7, 1000} {
		check("TitleSearch(mining)", e.TitleSearch("mining", limit), reference(func(w *model.Work) bool {
			return w.Title == "Surface Mining" || w.Title == "Surface Mining Reclamation"
		}, limit))
		check("TitleSearch(surface mining)", e.TitleSearch("surface mining", limit), reference(func(w *model.Work) bool {
			return w.Title == "Surface Mining" || w.Title == "Surface Mining Reclamation"
		}, limit))
		check("YearRange(single)", e.YearRange(1973, 1973, limit), reference(func(w *model.Work) bool {
			return w.Citation.Year == 1973
		}, limit))
		check("YearRange(multi)", e.YearRange(1971, 1977, limit), reference(func(w *model.Work) bool {
			return w.Citation.Year >= 1971 && w.Citation.Year <= 1977
		}, limit))
		check("Volume", e.VolumeView(5, limit), reference(func(w *model.Work) bool {
			return w.Citation.Volume == 5
		}, limit))
		check("BySubject(exact)", e.BySubjectView("Double Jeopardy", limit), reference(func(w *model.Work) bool {
			return len(w.Subjects) == 1 && w.Subjects[0] == "Double Jeopardy"
		}, limit))
		// Lower-cased, diacritic-stripped spellings miss the exact
		// collation key and take the primary-tier fallback scan.
		check("BySubject(fallback)", e.BySubjectView("equite", limit), reference(func(w *model.Work) bool {
			return len(w.Subjects) == 1 && w.Subjects[0] == "Équité"
		}, limit))
	}
	// Remove a third of the corpus and re-check: postings re-keyed on
	// citation keys must shrink consistently.
	var kept []*model.Work
	for i, w := range corpus {
		if i%3 == 0 {
			if !e.Remove(w.ID) {
				t.Fatalf("Remove(%d) missed", w.ID)
			}
		} else {
			kept = append(kept, w)
		}
	}
	corpus = kept
	check("TitleSearch after removes", e.TitleSearch("mining", 0), reference(func(w *model.Work) bool {
		return w.Title == "Surface Mining" || w.Title == "Surface Mining Reclamation"
	}, 0))
	check("YearRange after removes", e.YearRange(1970, 1979, 0), reference(func(w *model.Work) bool { return true }, 0))
}

// TestQueryStatsCounters checks the read-path counters move, and only
// for the work actually done: a limited query clones limit works even
// when many more match.
func TestQueryStatsCounters(t *testing.T) {
	e := New(collate.Default())
	for i := 1; i <= 50; i++ {
		w := &model.Work{
			ID:       model.WorkID(i),
			Title:    "Strip Mining Prohibition",
			Authors:  []model.Author{{Family: "Fam"}},
			Citation: model.Citation{Volume: 1, Page: i, Year: 1980},
		}
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	before := e.QueryStats()
	if got := e.TitleSearch("mining", 5); len(got) != 5 {
		t.Fatalf("TitleSearch = %d works", len(got))
	}
	after := e.QueryStats()
	if after.Queries != before.Queries+1 {
		t.Errorf("Queries %d -> %d, want +1", before.Queries, after.Queries)
	}
	if cloned := after.WorksCloned - before.WorksCloned; cloned != 5 {
		t.Errorf("WorksCloned += %d, want 5 (limit), not 50 (matches)", cloned)
	}
	if after.PostingsBytes <= before.PostingsBytes {
		t.Errorf("PostingsBytes did not grow: %d -> %d", before.PostingsBytes, after.PostingsBytes)
	}
	// Views clone nothing.
	mid := e.QueryStats()
	if view := e.TitleSearchView("mining", 0); len(view) != 50 {
		t.Fatalf("view = %d works", len(view))
	}
	if got := e.QueryStats(); got.WorksCloned != mid.WorksCloned {
		t.Errorf("view cloned %d works", got.WorksCloned-mid.WorksCloned)
	}
}

// TestViewResultsAreLiveAndOrdered: a view must return the engine's own
// work pointers (zero copy) in citation order, and CloneWorks must
// detach them.
func TestViewResultsAreLiveAndOrdered(t *testing.T) {
	e := fixture(t)
	view := e.TitleSearchView("mining", 0)
	if len(view) != 2 {
		t.Fatalf("view = %d works", len(view))
	}
	if inner, ok := e.WorkView(view[0].ID); !ok || inner != view[0] {
		t.Error("view did not return the engine's live reference")
	}
	cloned := e.CloneWorks(view)
	if cloned[0] == view[0] {
		t.Error("CloneWorks returned a live reference")
	}
	if !cloned[0].Equal(view[0]) {
		t.Error("clone differs from original")
	}
}
