package authorindex

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string) *Index {
	t.Helper()
	ix, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return ix
}

func sampleWork(title, cite string, authors ...string) Work {
	w := Work{Title: title}
	var err error
	if w.Citation, err = ParseCitation(cite); err != nil {
		panic(err)
	}
	for _, s := range authors {
		a, err := ParseAuthor(s)
		if err != nil {
			panic(err)
		}
		w.Authors = append(w.Authors, a)
	}
	return w
}

func TestEndToEndLifecycle(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)

	id1, err := ix.Add(sampleWork("Unlocking the Fire", "94:563 (1992)", "Lewin, Jeff L.", "Peng, Syd S."))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	id2, err := ix.Add(sampleWork("The Silent Revolution in Nuisance Law", "92:235 (1989)", "Lewin, Jeff L."))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AddSeeAlso("Lewin, J.", "Lewin, Jeff L."); err != nil {
		t.Fatalf("AddSeeAlso: %v", err)
	}

	entry, ok := ix.Author("Lewin, Jeff L.")
	if !ok || len(entry.Works) != 2 {
		t.Fatalf("Author lookup = %+v,%v", entry, ok)
	}
	if entry.Works[0].ID != id2 {
		t.Errorf("citation order wrong: first work is %d", entry.Works[0].ID)
	}
	if got := ix.Search("nuisance", 0); len(got) != 1 || got[0].ID != id2 {
		t.Errorf("Search = %v", got)
	}

	// Crash-free restart: everything must come back, including see-also.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2 := openT(t, dir)
	defer ix2.Close()
	if ix2.Len() != 2 {
		t.Fatalf("recovered %d works", ix2.Len())
	}
	if got := ix2.Search("unlocking", 0); len(got) != 1 || got[0].ID != id1 {
		t.Errorf("post-recovery search = %v", got)
	}
	ref, ok := ix2.Author("Lewin, J.")
	if !ok || len(ref.SeeAlso) != 1 {
		t.Errorf("post-recovery see-also = %+v,%v", ref, ok)
	}
	var buf bytes.Buffer
	if err := ix2.Render(&buf, RenderOptions{Format: Text}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Lewin, Jeff L.", "Peng, Syd S.", "94:563 (1992)", "See also"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestDeleteAndStats(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	id, _ := ix.Add(sampleWork("Solo Work", "90:1 (1988)", "Only, Author"))
	st := ix.Stats()
	if st.Works != 1 || st.Authors != 1 || !st.InMemory {
		t.Errorf("stats = %+v", st)
	}
	if err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if st := ix.Stats(); st.Works != 0 || st.Authors != 0 {
		t.Errorf("stats after delete = %+v", st)
	}
	if _, ok := ix.Get(id); ok {
		t.Error("deleted work gettable")
	}
}

func TestAuthorsPrefixAndRanges(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	ix.Add(sampleWork("A", "70:10 (1967)", "Abrams, Dennis M."))
	ix.Add(sampleWork("B", "75:20 (1972)", "Abramovsky, Deborah"))
	ix.Add(sampleWork("C", "80:30 (1977)", "Cardi, Vincent P."))
	if got := ix.Authors("abr", 0); len(got) != 2 {
		t.Errorf("Authors(abr) = %d", len(got))
	}
	if got := ix.YearRange(1967, 1972, 0); len(got) != 2 {
		t.Errorf("YearRange = %d", len(got))
	}
	if got := ix.VolumeWorks(80, 0); len(got) != 1 || got[0].Title != "C" {
		t.Errorf("VolumeWorks = %v", got)
	}
	if got := ix.Sections(); len(got) != 2 {
		t.Errorf("Sections = %d", len(got))
	}
}

func TestImportTSVRoundTrip(t *testing.T) {
	src := openT(t, "")
	defer src.Close()
	for _, w := range GenerateCorpus(CorpusConfig{Seed: 41, Works: 150}) {
		if _, err := src.Add(*w); err != nil {
			t.Fatal(err)
		}
	}
	var tsv bytes.Buffer
	if err := src.Render(&tsv, RenderOptions{Format: TSV}); err != nil {
		t.Fatal(err)
	}

	dst := openT(t, "")
	defer dst.Close()
	res, err := dst.ImportTSV(bytes.NewReader(tsv.Bytes()), false)
	if err != nil {
		t.Fatalf("ImportTSV: %v", err)
	}
	if res.Skipped != 0 {
		t.Errorf("skipped %d", res.Skipped)
	}
	a, b := src.Stats(), dst.Stats()
	if a.Works != b.Works || a.Authors != b.Authors || a.Postings != b.Postings {
		t.Errorf("round trip stats: %+v vs %+v", a, b)
	}
	var second bytes.Buffer
	if err := dst.Render(&second, RenderOptions{Format: TSV}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tsv.Bytes(), second.Bytes()) {
		t.Error("TSV import→render is not a fixed point")
	}
}

func TestImportCSV(t *testing.T) {
	src := openT(t, "")
	defer src.Close()
	src.Add(sampleWork("Only Work", "90:1 (1988)", "Writer, Some"))
	var csvBuf bytes.Buffer
	if err := src.Render(&csvBuf, RenderOptions{Format: CSV}); err != nil {
		t.Fatal(err)
	}
	dst := openT(t, "")
	defer dst.Close()
	if _, err := dst.ImportCSV(bytes.NewReader(csvBuf.Bytes()), false); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 1 {
		t.Errorf("imported %d works", dst.Len())
	}
}

func TestCompactKeepsEverything(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	for i := 0; i < 40; i++ {
		ix.Add(sampleWork(fmt.Sprintf("W%02d", i), fmt.Sprintf("90:%d (1988)", i+1), "Fam, G."))
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.SnapshotBytes == 0 || st.WALBytes != 0 {
		t.Errorf("post-compact stats = %+v", st)
	}
	ix.Close()
	ix2 := openT(t, dir)
	defer ix2.Close()
	if ix2.Len() != 40 {
		t.Errorf("recovered %d", ix2.Len())
	}
}

func TestConcurrentUse(t *testing.T) {
	ix := openT(t, t.TempDir())
	defer ix.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				switch r.Intn(4) {
				case 0:
					ix.Add(sampleWork(
						fmt.Sprintf("Work g%d i%d", g, i),
						fmt.Sprintf("90:%d (1988)", 1+r.Intn(900)),
						fmt.Sprintf("Family%d, G.", r.Intn(20))))
				case 1:
					ix.Search("work", 5)
				case 2:
					ix.Authors("fam", 3)
				case 3:
					ix.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCustomCollation(t *testing.T) {
	coll := DefaultCollation()
	coll.McAsMac = true
	ix, err := Open("", &Options{Collation: &coll})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.Add(sampleWork("A", "90:1 (1988)", "McAteer, J. Davitt"))
	ix.Add(sampleWork("B", "90:2 (1988)", "MacLeod, John A."))
	ix.Add(sampleWork("C", "90:3 (1988)", "Maxwell, Robert E."))
	var order []string
	for _, e := range ix.Authors("", 0) {
		order = append(order, e.Author.Family)
	}
	want := []string{"McAteer", "MacLeod", "Maxwell"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Mc-as-Mac order = %v, want %v", order, want)
		}
	}
}

func TestZeroOptionsOpen(t *testing.T) {
	ix, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Add(sampleWork("X", "90:1 (1988)", "F, G.")); err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Collation != "word-by-word" {
		t.Errorf("default collation = %q", ix.Stats().Collation)
	}
}

func TestRemoveSeeAlso(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	ix.Add(sampleWork("Real", "90:1 (1988)", "Target, Ann"))
	if err := ix.AddSeeAlso("Source, Bea", "Target, Ann"); err != nil {
		t.Fatal(err)
	}
	if err := ix.RemoveSeeAlso("Source, Bea", "Target, Ann"); err != nil {
		t.Fatalf("RemoveSeeAlso: %v", err)
	}
	if _, ok := ix.Author("Source, Bea"); ok {
		t.Error("empty cross-ref heading survives removal")
	}
	if err := ix.RemoveSeeAlso("Source, Bea", "Target, Ann"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove = %v", err)
	}
	// Removal is durable.
	ix.Close()
	ix2 := openT(t, dir)
	defer ix2.Close()
	if st := ix2.Stats(); st.CrossRefs != 0 {
		t.Errorf("cross-refs after reopen = %d", st.CrossRefs)
	}
}

func TestRenderTitleIndexFacade(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	ix.Add(sampleWork("The Zebra Question", "90:1 (1988)", "Writer, A."))
	ix.Add(sampleWork("An Aardvark Answer", "90:2 (1988)", "Writer, B."))
	var buf bytes.Buffer
	if err := ix.RenderTitleIndex(&buf, RenderOptions{Format: TSV}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "An Aardvark") || !strings.HasPrefix(lines[1], "The Zebra") {
		t.Errorf("title order = %v", lines)
	}
	if err := ix.RenderTitleIndex(&buf, RenderOptions{Format: CSV}); err == nil {
		t.Error("title index CSV accepted")
	}
}

func TestDuplicateSuggestions(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	ix.Add(sampleWork("Student Note", "81:675 (1979)", "Barrett, Joshua I.*"))
	ix.Add(sampleWork("Later Article", "94:693 (1992)", "Barrett, Joshua I."))
	ix.Add(sampleWork("Accented", "90:1 (1988)", "Müller, Jörg"))
	ix.Add(sampleWork("Plain", "91:1 (1989)", "Muller, Jorg"))
	ix.Add(sampleWork("Unrelated", "92:1 (1990)", "Zimmer, Q."))
	got := ix.DuplicateSuggestions()
	if len(got) != 2 {
		t.Fatalf("suggestions = %+v", got)
	}
	if got[0].Reason != SpellingVariant || got[1].Reason != StudentVariant {
		t.Errorf("reasons = %v, %v", got[0].Reason, got[1].Reason)
	}
}

func TestVerify(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	for _, w := range GenerateCorpus(CorpusConfig{Seed: 61, Works: 200}) {
		if _, err := ix.Add(*w); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("fresh index fails Verify: %v", err)
	}
	// Mutations keep it consistent.
	ix.Delete(5)
	ix.Add(sampleWork("Replacement", "99:1 (1996)", "New, Author"))
	ix.Compact()
	if err := ix.Verify(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
	// And across recovery.
	ix.Close()
	ix2 := openT(t, dir)
	defer ix2.Close()
	if err := ix2.Verify(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// TestVerifyCatchesCreditDrift: a tracker whose credit counters drift
// from the corpus fails Verify even when every work, posting and
// co-author count still agrees. One work is swapped in the tracker for
// a clone with the same ID and authors but another year and kind.
func TestVerifyCatchesCreditDrift(t *testing.T) {
	ix := openT(t, t.TempDir())
	defer ix.Close()
	for _, w := range GenerateCorpus(CorpusConfig{Seed: 61, Works: 50}) {
		if _, err := ix.Add(*w); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("fresh index fails Verify: %v", err)
	}
	eng := ix.engine()
	w, ok := eng.WorkView(7)
	if !ok {
		t.Fatal("work 7 missing")
	}
	drift := w.Clone()
	drift.Citation.Year = w.Citation.Year + 1
	drift.Kind = (w.Kind + 1) % (KindTribute + 1)
	eng.Metrics().Remove(w)
	eng.Metrics().Add(drift)
	if err := ix.Verify(); err == nil {
		t.Fatal("Verify passed with a tracker that files work 7 under another year and kind")
	}
}

// TestVerifyCatchesUnfiledPosting: a work missing from one of its
// headings fails Verify even while the heading still files other works.
func TestVerifyCatchesUnfiledPosting(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	for _, w := range GenerateCorpus(CorpusConfig{Seed: 61, Works: 300, ZipfS: 1.2}) {
		if _, err := ix.Add(*w); err != nil {
			t.Fatal(err)
		}
	}
	idx := ix.engine().Index()
	for _, w := range ix.engine().AllWorksView() {
		if e, _ := idx.Lookup(w.Authors[0]); len(e.Works) < 3 {
			continue
		}
		only := *w
		only.Authors = w.Authors[:1]
		idx.Remove(&only)
		err := ix.Verify()
		if err == nil || !strings.Contains(err.Error(), "lacks work") {
			t.Fatalf("Verify with work %d unfiled from %q = %v", w.ID, w.Authors[0].Display(), err)
		}
		return
	}
	t.Fatal("no heading files three works")
}

// TestVerifyAllocsPerWork: Verify checks each (work, author) pair on
// the live heading entry, binary-searching its posting order, so its
// allocations stay a small constant per stored work on a skewed
// corpus. A deep copy of the heading per pair would cost about 1,900
// allocations per work at this size, far above the bound.
func TestVerifyAllocsPerWork(t *testing.T) {
	const works = 20_000
	ix := openT(t, "")
	defer ix.Close()
	corpus := GenerateCorpus(CorpusConfig{Seed: 7, Works: works, ZipfS: 1.1})
	batch := make([]Work, len(corpus))
	for i, w := range corpus {
		batch[i] = *w
	}
	if _, err := ix.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if err := ix.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / works; per > 20 {
		t.Errorf("Verify allocates %.1f objects per stored work, want <= 20", per)
	}
}

func TestAuthorsPageCursor(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	for _, w := range GenerateCorpus(CorpusConfig{Seed: 51, Works: 300}) {
		if _, err := ix.Add(*w); err != nil {
			t.Fatal(err)
		}
	}
	// Walk the entire index in pages of 7; the union must equal a full
	// prefix-scan, in the same order, with no duplicates.
	var paged []string
	cursor := ""
	for {
		page := ix.AuthorsPage(cursor, 7)
		if len(page) == 0 {
			break
		}
		for _, e := range page {
			paged = append(paged, FormatAuthor(e.Author))
		}
		cursor = FormatAuthor(page[len(page)-1].Author)
		if len(page) < 7 {
			break
		}
	}
	var full []string
	for _, e := range ix.Authors("", 0) {
		full = append(full, FormatAuthor(e.Author))
	}
	if len(paged) != len(full) {
		t.Fatalf("paged %d headings, full scan %d", len(paged), len(full))
	}
	for i := range full {
		if paged[i] != full[i] {
			t.Fatalf("page order diverges at %d: %q vs %q", i, paged[i], full[i])
		}
	}
	// A bogus cursor yields nothing rather than an error.
	if got := ix.AuthorsPage("***", 5); got != nil {
		t.Errorf("bogus cursor returned %d entries", len(got))
	}
}

func TestSubjectsFacade(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	w := sampleWork("Methane Rights", "94:563 (1992)", "Lewin, Jeff L.")
	w.Subjects = []string{"Mining Law", "Property"}
	if _, err := ix.Add(w); err != nil {
		t.Fatal(err)
	}
	w2 := sampleWork("Jury Reform", "87:219 (1984)", "DiSalvo, Charles R.")
	w2.Subjects = []string{"Civil Procedure"}
	ix.Add(w2)

	subs := ix.Subjects()
	if len(subs) != 3 {
		t.Fatalf("Subjects = %+v", subs)
	}
	if got := ix.BySubject("property", 0); len(got) != 1 || got[0].Title != "Methane Rights" {
		t.Errorf("BySubject = %v", got)
	}
	var buf bytes.Buffer
	if err := ix.RenderSubjectIndex(&buf, RenderOptions{Format: Text}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MINING LAW") {
		t.Error("subject index render missing heading")
	}
	// Subjects survive persistence.
	ix.Close()
	ix2 := openT(t, dir)
	defer ix2.Close()
	if got := ix2.BySubject("Mining Law", 0); len(got) != 1 {
		t.Errorf("subjects lost across reopen: %v", got)
	}
	// And survive the TSV import/export cycle.
	var tsv bytes.Buffer
	if err := ix2.Render(&tsv, RenderOptions{Format: TSV}); err != nil {
		t.Fatal(err)
	}
	ix3 := openT(t, "")
	defer ix3.Close()
	if _, err := ix3.ImportTSV(bytes.NewReader(tsv.Bytes()), false); err != nil {
		t.Fatal(err)
	}
	if got := ix3.BySubject("Civil Procedure", 0); len(got) != 1 {
		t.Errorf("subjects lost through TSV round trip: %v", got)
	}
}

func TestInvalidInputsSurfaceErrors(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	if _, err := ix.Add(Work{Title: "no authors"}); err == nil {
		t.Error("invalid work accepted")
	}
	if err := ix.AddSeeAlso("", "Someone, Real"); err == nil {
		t.Error("empty see-also source accepted")
	}
	if err := ix.AddSeeAlso("Same, One", "Same, One"); err == nil {
		t.Error("self see-also accepted")
	}
	if _, err := ix.ImportTSV(strings.NewReader("bad line\n"), false); err == nil {
		t.Error("bad TSV accepted in strict mode")
	}
}
