package query

import (
	"testing"

	"repro/internal/citeparse"
	"repro/internal/collate"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/names"
)

func addWork(t *testing.T, e *Engine, id model.WorkID, title, cite string, authors ...string) *model.Work {
	t.Helper()
	w := &model.Work{ID: id, Title: title, Citation: citeparse.MustParse(cite)}
	for _, a := range authors {
		w.Authors = append(w.Authors, names.MustParse(a))
	}
	if err := e.Add(w); err != nil {
		t.Fatalf("Add(%s): %v", title, err)
	}
	return w
}

func fixture(t *testing.T) *Engine {
	t.Helper()
	e := New(collate.Default())
	addWork(t, e, 1, "Strip Mining and Reclamation", "75:319 (1973)", "Cardi, Vincent P.")
	addWork(t, e, 2, "The Consumer Credit and Protection Act", "77:401 (1975)", "Cardi, Vincent P.")
	addWork(t, e, 3, "Surface Mining Control", "81:553 (1979)", "Udall, Morris K.")
	addWork(t, e, 4, "Coalbed Methane Ownership", "94:563 (1992)", "Lewin, Jeff L.", "Peng, Syd S.")
	addWork(t, e, 5, "Comparative Negligence Overview", "82:473 (1980)", "Cady, Thomas C.")
	return e
}

func TestAuthorExact(t *testing.T) {
	e := fixture(t)
	entry, ok := e.AuthorExact("Cardi, Vincent P.")
	if !ok || len(entry.Works) != 2 {
		t.Fatalf("AuthorExact = %+v,%v", entry, ok)
	}
	// Works in citation order.
	if entry.Works[0].Citation.Volume != 75 {
		t.Errorf("first work vol = %d", entry.Works[0].Citation.Volume)
	}
	if _, ok := e.AuthorExact("Nobody, At All"); ok {
		t.Error("missing author found")
	}
	if _, ok := e.AuthorExact(""); ok {
		t.Error("empty heading found")
	}
}

func TestAuthorPrefix(t *testing.T) {
	e := fixture(t)
	got := e.AuthorPrefix("ca", 0)
	if len(got) != 2 {
		t.Fatalf("prefix ca = %d entries", len(got))
	}
	if got[0].Author.Family != "Cady" || got[1].Author.Family != "Cardi" {
		t.Errorf("order: %s, %s", got[0].Author.Display(), got[1].Author.Display())
	}
	if got := e.AuthorPrefix("ca", 1); len(got) != 1 {
		t.Errorf("limit ignored: %d", len(got))
	}
	if got := e.AuthorPrefix("zz", 0); len(got) != 0 {
		t.Errorf("zz matched %d", len(got))
	}
}

func TestTitleSearch(t *testing.T) {
	e := fixture(t)
	got := e.TitleSearch("mining", 0)
	if len(got) != 2 {
		t.Fatalf("mining = %d works", len(got))
	}
	// Citation order: 75 before 81.
	if got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("order = %d, %d", got[0].ID, got[1].ID)
	}
	if got := e.TitleSearch("mining -strip", 0); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("NOT query = %v", got)
	}
	if got := e.TitleSearch("coal*", 0); len(got) != 1 || got[0].ID != 4 {
		t.Errorf("prefix query = %v", got)
	}
	if got := e.TitleSearch("mining", 1); len(got) != 1 {
		t.Errorf("limit ignored")
	}
}

func TestYearRangeAndVolume(t *testing.T) {
	e := fixture(t)
	got := e.YearRange(1973, 1979, 0)
	if len(got) != 3 {
		t.Fatalf("1973-1979 = %d works", len(got))
	}
	for _, w := range got {
		if w.Citation.Year < 1973 || w.Citation.Year > 1979 {
			t.Errorf("year %d out of range", w.Citation.Year)
		}
	}
	if got := e.YearRange(1990, 1980, 0); got != nil {
		t.Error("inverted range returned results")
	}
	if got := e.YearRange(1800, 3000, 2); len(got) != 2 {
		t.Error("limit ignored in YearRange")
	}
	vol := e.VolumeView(77, 0)
	if len(vol) != 1 || vol[0].ID != 2 {
		t.Errorf("Volume(77) = %v", vol)
	}
	if got := e.VolumeView(999, 0); len(got) != 0 {
		t.Error("phantom volume")
	}
}

func TestRemove(t *testing.T) {
	e := fixture(t)
	if !e.Remove(4) {
		t.Fatal("Remove(4) = false for an indexed work")
	}
	if e.Remove(4) {
		t.Error("double remove succeeded")
	}
	if got := e.TitleSearch("coalbed", 0); len(got) != 0 {
		t.Error("removed work still searchable")
	}
	if _, ok := e.AuthorExact("Peng, Syd S."); ok {
		t.Error("heading survives with no works")
	}
	if got := e.YearRange(1992, 1992, 0); len(got) != 0 {
		t.Error("removed work still in year index")
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestReAddReplaces(t *testing.T) {
	e := fixture(t)
	w := &model.Work{
		ID:       3,
		Title:    "A Renamed Article",
		Citation: citeparse.MustParse("85:100 (1983)"),
		Authors:  []model.Author{names.MustParse("Udall, Morris K.")},
	}
	if err := e.Add(w); err != nil {
		t.Fatal(err)
	}
	if got := e.TitleSearch("surface", 0); len(got) != 0 {
		t.Error("old title still indexed after replace")
	}
	if got := e.TitleSearch("renamed", 0); len(got) != 1 {
		t.Error("new title not indexed")
	}
	if got := e.VolumeView(81, 0); len(got) != 0 {
		t.Error("old volume entry survives")
	}
	if e.Len() != 5 {
		t.Errorf("Len = %d, want 5", e.Len())
	}
}

func TestAddValidation(t *testing.T) {
	e := New(collate.Default())
	if err := e.Add(&model.Work{Title: "x"}); err == nil {
		t.Error("invalid work accepted")
	}
	w := &model.Work{
		Title:    "no id",
		Citation: citeparse.MustParse("90:1 (1988)"),
		Authors:  []model.Author{{Family: "F"}},
	}
	if err := e.Add(w); err == nil {
		t.Error("zero-ID work accepted")
	}
}

func TestResultsAreCopies(t *testing.T) {
	e := fixture(t)
	got := e.TitleSearch("mining", 0)
	got[0].Title = "mutated"
	again, _ := e.Work(got[0].ID)
	if again.Title == "mutated" {
		t.Error("TitleSearch leaked internal state")
	}
}

func TestStats(t *testing.T) {
	e := fixture(t)
	st := e.Stats()
	if st.Works != 5 || st.Authors != 5 || st.Postings != 6 {
		t.Errorf("stats = %+v", st)
	}
	if st.Terms == 0 {
		t.Error("no inverted terms")
	}
}

// TestStatsCountsDistinctWorks: Stats.Works counts each work once
// however many headings file it, drops a removed work, and does not
// grow when a work is re-added under its ID.
func TestStatsCountsDistinctWorks(t *testing.T) {
	check := func(t *testing.T, e *Engine, works, postings, authors int) {
		t.Helper()
		if st := e.Stats(); st.Works != works || st.Postings != postings || st.Authors != authors {
			t.Errorf("stats = %+v, want %d works, %d postings, %d headings", st, works, postings, authors)
		}
	}
	t.Run("MultiAuthorWork", func(t *testing.T) {
		e := New(collate.Default())
		addWork(t, e, 1, "Suicide as a Compensable Claim", "86:369 (1983)",
			"Bastien, Christopher P.", "Batt, John R.")
		check(t, e, 1, 2, 2)
	})
	t.Run("Remove", func(t *testing.T) {
		e := New(collate.Default())
		addWork(t, e, 1, "First", "90:1 (1988)", "Shared, Author", "Solo, Writer")
		addWork(t, e, 2, "Second", "90:50 (1988)", "Shared, Author")
		e.Remove(1)
		check(t, e, 1, 1, 1)
		e.Remove(1)
		check(t, e, 1, 1, 1)
	})
	t.Run("ReAddReplacesPosting", func(t *testing.T) {
		e := New(collate.Default())
		w := addWork(t, e, 1, "Old Title", "90:1 (1988)", "Fam, G.")
		w.Title = "New Title"
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
		check(t, e, 1, 1, 1)
	})
}

func TestAllWorks(t *testing.T) {
	e := fixture(t)
	all := e.AllWorks()
	if len(all) != 5 {
		t.Fatalf("AllWorks = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatal("AllWorks not in ID order")
		}
	}
	all[0].Title = "mutated"
	if w, _ := e.Work(all[0].ID); w.Title == "mutated" {
		t.Error("AllWorks leaked internal state")
	}
}

func TestAuthorPage(t *testing.T) {
	e := fixture(t)
	first := e.AuthorPage("", 2)
	if len(first) != 2 {
		t.Fatalf("first page = %d entries", len(first))
	}
	second := e.AuthorPage(first[1].Author.Display(), 10)
	if len(second) == 0 {
		t.Fatal("second page empty")
	}
	if second[0].Author.Display() == first[1].Author.Display() {
		t.Error("cursor entry repeated on next page")
	}
	total := len(first) + len(second)
	if all := e.AuthorPage("", 0); len(all) != total {
		t.Errorf("pages total %d, default-limit scan %d", total, len(all))
	}
	if got := e.AuthorPage("***", 5); got != nil {
		t.Errorf("bad cursor returned %d entries", len(got))
	}
}

func TestSubjects(t *testing.T) {
	e := New(collate.Default())
	w1 := &model.Work{
		ID: 1, Title: "One", Citation: citeparse.MustParse("90:1 (1988)"),
		Authors:  []model.Author{{Family: "A"}},
		Subjects: []string{"Mining Law", "Property"},
	}
	w2 := &model.Work{
		ID: 2, Title: "Two", Citation: citeparse.MustParse("91:1 (1989)"),
		Authors:  []model.Author{{Family: "B"}},
		Subjects: []string{"Mining Law"},
	}
	if err := e.Add(w1); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(w2); err != nil {
		t.Fatal(err)
	}
	subs := e.Subjects()
	if len(subs) != 2 || subs[0].Subject != "Mining Law" || subs[0].Works != 2 {
		t.Fatalf("Subjects = %+v", subs)
	}
	got := e.BySubjectView("Mining Law", 0)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("BySubject = %v", got)
	}
	// Case-insensitive match through the collation fallback.
	if got := e.BySubjectView("mining law", 0); len(got) != 2 {
		t.Errorf("case-insensitive subject lookup = %d", len(got))
	}
	if got := e.BySubjectView("Unknown Topic", 0); got != nil {
		t.Errorf("phantom subject = %v", got)
	}
	// Removal maintenance.
	e.Remove(1)
	subs = e.Subjects()
	if len(subs) != 1 || subs[0].Works != 1 {
		t.Fatalf("after remove: %+v", subs)
	}
	e.Remove(2)
	if len(e.Subjects()) != 0 {
		t.Error("subject headings survive with no works")
	}
}

func TestLargeGeneratedCorpus(t *testing.T) {
	e := New(collate.Default())
	works := gen.Generate(gen.Config{Seed: 31, Works: 2000})
	for _, w := range works {
		if err := e.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 2000 {
		t.Fatalf("Len = %d", e.Len())
	}
	// Every work is findable through the year index.
	total := 0
	for y := 1960; y < 2010; y++ {
		total += len(e.YearRange(y, y, 0))
	}
	if total != 2000 {
		t.Errorf("year index covers %d works", total)
	}
	// Spot-check author lookup for every 97th work.
	for i := 0; i < len(works); i += 97 {
		a := works[i].Authors[0]
		entry, ok := e.Index().Lookup(a)
		if !ok {
			t.Fatalf("author %q missing", a.Display())
		}
		found := false
		for _, w := range entry.Works {
			if w.ID == works[i].ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("work %d not under %q", works[i].ID, a.Display())
		}
	}
}
