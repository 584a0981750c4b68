package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/collate"
	"repro/internal/model"
	"repro/internal/names"
)

var nextTestID model.WorkID

func mkWork(t *testing.T, title string, cite string, authorStrs ...string) *model.Work {
	t.Helper()
	nextTestID++
	w := &model.Work{ID: nextTestID, Title: title}
	var err error
	if w.Citation, err = parseCite(cite); err != nil {
		t.Fatalf("bad cite %q: %v", cite, err)
	}
	for _, s := range authorStrs {
		w.Authors = append(w.Authors, names.MustParse(s))
	}
	return w
}

func parseCite(s string) (model.Citation, error) {
	var c model.Citation
	_, err := fmt.Sscanf(s, "%d:%d (%d)", &c.Volume, &c.Page, &c.Year)
	return c, err
}

func headings(ix *Index) []string {
	var out []string
	ix.Ascend(func(_ []byte, e *Entry) bool {
		out = append(out, e.Author.Display())
		return true
	})
	return out
}

func TestAddAndOrder(t *testing.T) {
	ix := New(collate.Default())
	works := []*model.Work{
		mkWork(t, "Essay on Coal", "76:337 (1974)", "Bondurant, Donald M."),
		mkWork(t, "Stop and Frisk", "71:394 (1969)", "Anderson, John M.*"),
		mkWork(t, "Welfare Hearings", "73:80 (1971)", "Albert, Michael C.*"),
		mkWork(t, "Ideas of Relevance to Law", "84:1 (1981)", "Adler, Mortimer J."),
	}
	for _, w := range works {
		if err := ix.Add(w); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	want := []string{
		"Adler, Mortimer J.",
		"Albert, Michael C.*",
		"Anderson, John M.*",
		"Bondurant, Donald M.",
	}
	got := headings(ix)
	if len(got) != len(want) {
		t.Fatalf("headings = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("headings = %v, want %v", got, want)
		}
	}
	// Ascend hands out the key each heading is filed under.
	ix.Ascend(func(key []byte, e *Entry) bool {
		if want := collate.KeyAuthor(e.Author, ix.Options()); string(key) != string(want) {
			t.Errorf("Ascend key for %q = %q, want %q", e.Author.Display(), key, want)
		}
		return true
	})
}

func TestMultiAuthorWork(t *testing.T) {
	ix := New(collate.Default())
	w := mkWork(t, "Suicide as a Compensable Claim", "86:369 (1983)",
		"Bastien, Christopher P.", "Batt, John R.")
	ix.Add(w)
	st := ix.Stats()
	if st.Authors != 2 || st.Postings != 2 {
		t.Errorf("stats = %+v", st)
	}
	for _, a := range w.Authors {
		e, ok := ix.Lookup(a)
		if !ok || len(e.Works) != 1 || e.Works[0].ID != w.ID {
			t.Errorf("Lookup(%s) = %+v,%v", a.Display(), e, ok)
		}
	}
}

func TestWorksSortedByCitation(t *testing.T) {
	ix := New(collate.Default())
	a := "Cardi, Vincent P."
	w1 := mkWork(t, "UCC Article 2", "93:735 (1991)", a)
	w2 := mkWork(t, "Strip Mining", "75:319 (1973)", a)
	w3 := mkWork(t, "Consumer Credit", "77:401 (1975)", a)
	for _, w := range []*model.Work{w1, w2, w3} {
		ix.Add(w)
	}
	e, _ := ix.Lookup(names.MustParse(a))
	if len(e.Works) != 3 {
		t.Fatalf("works = %d", len(e.Works))
	}
	if e.Works[0].Citation.Volume != 75 || e.Works[1].Citation.Volume != 77 || e.Works[2].Citation.Volume != 93 {
		t.Errorf("citation order wrong: %v %v %v",
			e.Works[0].Citation, e.Works[1].Citation, e.Works[2].Citation)
	}
}

func TestStudentAndProfessionalAreDistinctHeadings(t *testing.T) {
	// The same person as a student (asterisked) and later as a
	// professional gets two headings, as the source material does.
	ix := New(collate.Default())
	ix.Add(mkWork(t, "Student Note", "81:675 (1979)", "Barrett, Joshua I.*"))
	ix.Add(mkWork(t, "Professional Article", "94:693 (1992)", "Barrett, Joshua I."))
	if ix.Len() != 2 {
		t.Fatalf("headings = %v", headings(ix))
	}
	st := ix.Stats()
	if st.StudentNotes != 1 {
		t.Errorf("StudentNotes = %d, want 1", st.StudentNotes)
	}
}

func TestRemove(t *testing.T) {
	ix := New(collate.Default())
	w1 := mkWork(t, "First", "90:1 (1988)", "Shared, Author", "Solo, Writer")
	w2 := mkWork(t, "Second", "90:50 (1988)", "Shared, Author")
	ix.Add(w1)
	ix.Add(w2)
	ix.Remove(w1)
	if _, ok := ix.Lookup(names.MustParse("Solo, Writer")); ok {
		t.Error("empty heading not deleted")
	}
	e, ok := ix.Lookup(names.MustParse("Shared, Author"))
	if !ok || len(e.Works) != 1 || e.Works[0].ID != w2.ID {
		t.Errorf("shared heading after remove = %+v,%v", e, ok)
	}
	st := ix.Stats()
	if st.Postings != 1 || st.Authors != 1 {
		t.Errorf("stats after remove = %+v", st)
	}
	// Removing again is a no-op.
	ix.Remove(w1)
	if got := ix.Stats(); got != st {
		t.Errorf("idempotent remove changed stats: %+v", got)
	}
}

func TestAddValidation(t *testing.T) {
	ix := New(collate.Default())
	bad := &model.Work{Title: "x"}
	if err := ix.Add(bad); err == nil {
		t.Error("invalid work accepted")
	}
	w := mkWork(t, "ok", "90:1 (1988)", "Fam, G.")
	w.ID = 0
	if err := ix.Add(w); err == nil {
		t.Error("zero-ID work accepted")
	}
}

func TestReAddReplacesPosting(t *testing.T) {
	ix := New(collate.Default())
	w := mkWork(t, "Old Title", "90:1 (1988)", "Fam, G.")
	ix.Add(w)
	w2 := w.Clone()
	w2.Title = "New Title"
	ix.Add(w2)
	e, _ := ix.Lookup(names.MustParse("Fam, G."))
	if len(e.Works) != 1 || e.Works[0].Title != "New Title" {
		t.Errorf("re-add result: %+v", e.Works)
	}
	if st := ix.Stats(); st.Postings != 1 {
		t.Errorf("stats after re-add: %+v", st)
	}
}

// TestReAddRefilesInOrder: re-adding an ID with a new citation unfiles
// the old posting and files the new one in (citation, title) order,
// which Files relies on to binary-search a heading.
func TestReAddRefilesInOrder(t *testing.T) {
	ix := New(collate.Default())
	fam := names.MustParse("Fam, G.")
	w := mkWork(t, "Moved", "90:1 (1988)", "Fam, G.")
	ix.Add(w)
	ix.Add(mkWork(t, "Stays", "91:1 (1989)", "Fam, G."))
	moved := w.Clone()
	moved.Citation.Volume, moved.Citation.Year = 95, 1993
	ix.Add(moved)
	e, _ := ix.Lookup(fam)
	if len(e.Works) != 2 || e.Works[0].Title != "Stays" || e.Works[1].Citation != moved.Citation {
		t.Fatalf("after re-add: %+v", e.Works)
	}
	if !e.Files(moved) || e.Files(w) {
		t.Errorf("Files(moved) = %v, Files(old citation) = %v", e.Files(moved), e.Files(w))
	}
	if st := ix.Stats(); st.Postings != 2 {
		t.Errorf("postings = %d, want 2", st.Postings)
	}
}

// TestAddSharesWorkSlices: Add files the work by value and retains its
// author and subject slices read-only, one posting per author and no
// deep copy.
func TestAddSharesWorkSlices(t *testing.T) {
	ix := New(collate.Default())
	w := mkWork(t, "Shared", "90:1 (1988)", "One, A.", "Two, B.")
	w.Subjects = []string{"Mining Law"}
	ix.Add(w)
	for _, a := range w.Authors {
		e, _ := ix.Lookup(a)
		if &e.Works[0].Authors[0] != &w.Authors[0] || &e.Works[0].Subjects[0] != &w.Subjects[0] {
			t.Errorf("%s: posting copies the work's slices", a.Display())
		}
	}
}

func TestSeeAlso(t *testing.T) {
	ix := New(collate.Default())
	ix.Add(mkWork(t, "Real Article", "90:1 (1988)", "Crain-Mountney, Marion"))
	from := names.MustParse("Mountney, Marion Crain")
	to := names.MustParse("Crain-Mountney, Marion")
	if err := ix.AddSeeAlso(from, to); err != nil {
		t.Fatalf("AddSeeAlso: %v", err)
	}
	e, ok := ix.Lookup(from)
	if !ok || len(e.SeeAlso) != 1 || len(e.Works) != 0 {
		t.Fatalf("cross-ref entry = %+v,%v", e, ok)
	}
	// Duplicate is ignored; self-reference is an error.
	if err := ix.AddSeeAlso(from, to); err != nil {
		t.Errorf("duplicate see-also errored: %v", err)
	}
	if st := ix.Stats(); st.CrossRefs != 1 {
		t.Errorf("CrossRefs = %d, want 1", st.CrossRefs)
	}
	if err := ix.AddSeeAlso(from, from); err == nil {
		t.Error("self see-also accepted")
	}
	// Removing the real work must not delete the pure cross-ref heading.
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestSections(t *testing.T) {
	ix := New(collate.Default())
	ix.Add(mkWork(t, "A1", "90:1 (1988)", "Abrams, Dennis M."))
	ix.Add(mkWork(t, "A2", "90:2 (1988)", "Ashe, Marie"))
	ix.Add(mkWork(t, "B1", "90:3 (1988)", "Bagge, Carl E."))
	ix.Add(mkWork(t, "V1", "90:4 (1988)", "Van Tol, Joan E."))
	secs := ix.Sections()
	if len(secs) != 3 {
		t.Fatalf("sections = %d, want 3 (A, B, V)", len(secs))
	}
	if secs[0].Letter != 'A' || len(secs[0].Entries) != 2 {
		t.Errorf("section A = %c/%d", secs[0].Letter, len(secs[0].Entries))
	}
	if secs[2].Letter != 'V' {
		t.Errorf("section 3 = %c, want V (particle grouping)", secs[2].Letter)
	}
	// Section entries are the live filed entries: Sections copies
	// nothing (the facade copies what it returns).
	if e, _ := ix.Lookup(names.MustParse("Abrams, Dennis M.")); secs[0].Entries[0] != e {
		t.Error("Sections copied a filed entry")
	}
}

func TestAscendPrefix(t *testing.T) {
	ix := New(collate.Default())
	for _, s := range []string{"Abdalla, Tarek F.*", "Abramovsky, Deborah", "Abrams, Dennis M.", "Adams, Alayne B."} {
		ix.Add(mkWork(t, "T "+s, "90:1 (1988)", s))
	}
	var got []string
	ix.AscendPrefix("abr", func(e *Entry) bool {
		got = append(got, e.Author.Family)
		return true
	})
	if len(got) != 2 || got[0] != "Abramovsky" || got[1] != "Abrams" {
		t.Errorf("prefix scan = %v", got)
	}
}

// TestLookupEntryIsFrozen: Lookup returns the filed entry itself, and
// a later mutation of the heading files a copy, so an entry already
// handed out keeps its contents.
func TestLookupEntryIsFrozen(t *testing.T) {
	ix := New(collate.Default())
	fam := names.MustParse("Fam, G.")
	ix.Add(mkWork(t, "Original", "90:1 (1988)", "Fam, G."))
	e, _ := ix.Lookup(fam)
	if again, _ := ix.Lookup(fam); again != e {
		t.Fatal("Lookup copied the filed entry")
	}
	ix.Add(mkWork(t, "Earlier", "89:1 (1987)", "Fam, G."))
	ix.AddSeeAlso(fam, names.MustParse("Other, G."))
	if len(e.Works) != 1 || e.Works[0].Title != "Original" || len(e.SeeAlso) != 0 {
		t.Errorf("a mutation edited a handed-out entry: %+v", e)
	}
	if now, _ := ix.Lookup(fam); len(now.Works) != 2 || now.Works[0].Title != "Earlier" || len(now.SeeAlso) != 1 {
		t.Errorf("Lookup after the mutation = %+v", now)
	}
}

// Incremental maintenance must converge to the same state as a rebuild.
func TestIncrementalEqualsRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	families := []string{"Smith", "Jones", "Müller", "Van Dyke", "McAdam", "O'Brien", "Lee"}
	var corpus []*model.Work
	inc := New(collate.Default())
	for i := 0; i < 400; i++ {
		nextTestID++
		w := &model.Work{
			ID:    nextTestID,
			Title: fmt.Sprintf("Title %d", i),
			Citation: model.Citation{
				Volume: 60 + r.Intn(40), Page: 1 + r.Intn(1500), Year: 1960 + r.Intn(40),
			},
			Authors: []model.Author{{
				Family:  families[r.Intn(len(families))],
				Given:   fmt.Sprintf("%c.", 'A'+r.Intn(26)),
				Student: r.Intn(3) == 0,
			}},
		}
		corpus = append(corpus, w)
		if err := inc.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: remove a third, re-add half of those.
	removed := map[int]bool{}
	for i := 0; i < len(corpus); i += 3 {
		inc.Remove(corpus[i])
		removed[i] = true
	}
	for i := 0; i < len(corpus); i += 6 {
		inc.Add(corpus[i])
		delete(removed, i)
	}
	var live []*model.Work
	for i, w := range corpus {
		if !removed[i] {
			live = append(live, w)
		}
	}
	full, err := Rebuild(collate.Default(), live)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats() != full.Stats() {
		t.Fatalf("stats diverge: inc=%+v full=%+v", inc.Stats(), full.Stats())
	}
	// Entry-by-entry comparison in order.
	type flat struct {
		heading string
		ids     []model.WorkID
	}
	flatten := func(ix *Index) []flat {
		var out []flat
		ix.Ascend(func(_ []byte, e *Entry) bool {
			f := flat{heading: e.Author.Display()}
			for _, w := range e.Works {
				f.ids = append(f.ids, w.ID)
			}
			out = append(out, f)
			return true
		})
		return out
	}
	a, b := flatten(inc), flatten(full)
	if len(a) != len(b) {
		t.Fatalf("headings: inc=%d full=%d", len(a), len(b))
	}
	for i := range a {
		if a[i].heading != b[i].heading {
			t.Fatalf("heading %d: %q vs %q", i, a[i].heading, b[i].heading)
		}
		if len(a[i].ids) != len(b[i].ids) {
			t.Fatalf("%s: %v vs %v", a[i].heading, a[i].ids, b[i].ids)
		}
		// Same multiset of IDs (order may differ only when citations tie).
		sa := append([]model.WorkID(nil), a[i].ids...)
		sb := append([]model.WorkID(nil), b[i].ids...)
		sort.Slice(sa, func(x, y int) bool { return sa[x] < sa[y] })
		sort.Slice(sb, func(x, y int) bool { return sb[x] < sb[y] })
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("%s ids differ: %v vs %v", a[i].heading, a[i].ids, b[i].ids)
			}
		}
	}
}

func TestRemoveSeeAlsoCore(t *testing.T) {
	ix := New(collate.Default())
	from := names.MustParse("Old, Name")
	to := names.MustParse("New, Name")
	if ix.RemoveSeeAlso(from, to) {
		t.Error("removed nonexistent cross-ref")
	}
	if err := ix.AddSeeAlso(from, to); err != nil {
		t.Fatal(err)
	}
	other := names.MustParse("Third, Name")
	if err := ix.AddSeeAlso(from, other); err != nil {
		t.Fatal(err)
	}
	if !ix.RemoveSeeAlso(from, to) {
		t.Fatal("failed to remove existing cross-ref")
	}
	// Heading survives: it still carries the other reference.
	e, ok := ix.Lookup(from)
	if !ok || len(e.SeeAlso) != 1 || e.SeeAlso[0] != other {
		t.Fatalf("entry after partial removal: %+v,%v", e, ok)
	}
	if !ix.RemoveSeeAlso(from, other) {
		t.Fatal("failed to remove second cross-ref")
	}
	if _, ok := ix.Lookup(from); ok {
		t.Error("empty heading not deleted")
	}
	if st := ix.Stats(); st.CrossRefs != 0 {
		t.Errorf("CrossRefs = %d", st.CrossRefs)
	}
}

func TestAscendAfter(t *testing.T) {
	ix := New(collate.Default())
	headings := []string{"Adams, A.", "Baker, B.", "Clark, C.", "Davis, D."}
	for i, h := range headings {
		ix.Add(mkWork(t, fmt.Sprintf("W%d", i), fmt.Sprintf("90:%d (1988)", i+1), h))
	}
	var got []string
	ix.AscendAfter(names.MustParse("Baker, B."), func(e *Entry) bool {
		got = append(got, e.Author.Display())
		return true
	})
	if len(got) != 2 || got[0] != "Clark, C." || got[1] != "Davis, D." {
		t.Errorf("AscendAfter = %v", got)
	}
	// Nonexistent cursor between entries starts at the next heading.
	got = got[:0]
	ix.AscendAfter(names.MustParse("Bzzz, Q."), func(e *Entry) bool {
		got = append(got, e.Author.Display())
		return true
	})
	if len(got) != 2 || got[0] != "Clark, C." {
		t.Errorf("between-cursor AscendAfter = %v", got)
	}
	// Zero author = full scan.
	n := 0
	ix.AscendAfter(model.Author{}, func(*Entry) bool { n++; return true })
	if n != 4 {
		t.Errorf("zero-cursor scan = %d", n)
	}
	if ix.Options() != collate.Default() {
		t.Error("Options() mismatch")
	}
}

func TestStatsEmpty(t *testing.T) {
	ix := New(collate.Default())
	if st := ix.Stats(); st != (Stats{}) {
		t.Errorf("empty stats = %+v", st)
	}
}
