package render

import (
	"bytes"
	"context"
	"io"
	"sort"
	"testing"

	"repro/internal/citeparse"
	"repro/internal/collate"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/names"
)

// edgeFixture holds the titles and headings that stress collation:
// leading articles, diacritic-only and case-only differences, identical
// titles (with equal and with different citations), digit-, punctuation-
// and non-Latin-led text, a combining mark and a control byte.
func edgeFixture() []*model.Work {
	mk := func(id model.WorkID, title, cite, author string, subjects ...string) *model.Work {
		return &model.Work{
			ID: id, Title: title, Kind: model.KindArticle,
			Citation: citeparse.MustParse(cite),
			Authors:  []model.Author{names.MustParse(author)},
			Subjects: subjects,
		}
	}
	return []*model.Work{
		mk(1, "Café Society", "90:12 (1988)", "Müller, Jörg", "Property"),
		mk(2, "Cafe Society", "90:11 (1988)", "Muller, Jorg", "property"),
		mk(3, "cafe society", "90:10 (1988)", "Smith, Ann", "Property Law"),
		mk(4, "Café Society", "90:9 (1988)", "Smith, Bob", "Próperty"),
		mk(5, "The Same Title", "91:5 (1989)", "Jones, Cy", "Mining Law"),
		mk(6, "The Same Title", "91:1 (1989)", "Jones, Dee", "Mining Law"),
		mk(7, "The Same Title", "91:1 (1989)", "Jones, Eve", "Mining Law"),
		mk(8, "Same Title", "91:3 (1989)", "Jones, Fay", "mining law"),
		mk(9, "A Survey", "75:319 (1973)", "Cardi, Vincent P."),
		mk(10, "An Economic Analysis", "88:677 (1986)", "Cirace, John"),
		mk(11, "the lower-case article", "88:1 (1986)", "Cirace, John", "1st Amendment"),
		mk(12, "Theories of Law", "84:1 (1981)", "Adler, Mortimer J.", "Jurisprudence"),
		mk(13, "1984 Revisited", "89:44 (1987)", "Orwell, George", "1st Amendment"),
		mk(14, "42 Ways to Win", "89:45 (1987)", "Adams, Doug", "42"),
		mk(15, "日本の法 and Law", "92:7 (1990)", "Tanaka, Hiro", "日本"),
		mk(16, "Ωmega Points", "92:8 (1990)", "Pappas, Nick", "Ωmega"),
		mk(17, "Émile and Education", "93:1 (1991)", "Rousseau, Jean", "Éducation"),
		mk(18, "'t Hooft Revisited", "93:2 (1991)", "Hooft, Gerard 't", "Physics"),
		mk(19, "...", "93:3 (1991)", "Dot, Dot", "..."),
		mk(20, "\x01Control Byte", "93:4 (1991)", "Byte, Con"),
		mk(21, "Straße and Strasse", "93:5 (1991)", "Weiß, Hans", "Straße"),
		mk(22, "Strasse and Straße", "93:6 (1991)", "Weiss, Hans", "Strasse"),
		mk(23, "DE LONG on Deford", "93:7 (1991)", "De Long, Al", "De Long"),
		mk(24, "Deford on De Long", "93:8 (1991)", "Deford, Al", "Deford"),
		mk(25, "Cafe\u0301 Society", "90:13 (1988)", "Smith, Cal", "Prope\u0301rty"),
	}
}

// refSortByTitle is the comparator-keyed sort the keyed sort replaced:
// it rebuilds both collation keys on every comparison.
func refSortByTitle(works []*model.Work, coll collate.Options) []*model.Work {
	sorted := append([]*model.Work(nil), works...)
	sort.SliceStable(sorted, func(i, j int) bool {
		ki := collate.KeyString(indexableTitle(sorted[i].Title), coll)
		kj := collate.KeyString(indexableTitle(sorted[j].Title), coll)
		if c := bytes.Compare(ki, kj); c != 0 {
			return c < 0
		}
		return sorted[i].Citation.Compare(sorted[j].Citation) < 0
	})
	return sorted
}

// refTitleLetter is the section letter taken from a fresh primary-tier
// build, as before titles carried their keys.
func refTitleLetter(title string, coll collate.Options) byte {
	for _, c := range collate.PrimaryPrefix(indexableTitle(title), coll) {
		if c >= 'a' && c <= 'z' {
			return c - 'a' + 'A'
		}
		if c >= '0' && c <= '9' {
			return '#'
		}
	}
	return '#'
}

// refGroupBySubject groups like GroupSubjects but orders headings by
// keys rebuilt in the comparator.
func refGroupBySubject(works []*model.Work, coll collate.Options) SubjectGroups {
	byKey := map[string]*subjectGroup{}
	for _, w := range works {
		subjects := w.Subjects
		if len(subjects) == 0 {
			subjects = []string{Unclassified}
		}
		for _, s := range subjects {
			g, ok := byKey[s]
			if !ok {
				g = &subjectGroup{subject: s}
				byKey[s] = g
			}
			g.works = append(g.works, w)
		}
	}
	groups := make(SubjectGroups, 0, len(byKey))
	for _, g := range byKey {
		sort.SliceStable(g.works, func(i, j int) bool {
			return g.works[i].Citation.Compare(g.works[j].Citation) < 0
		})
		groups = append(groups, *g)
	}
	sort.Slice(groups, func(i, j int) bool {
		return bytes.Compare(
			collate.KeyString(groups[i].subject, coll),
			collate.KeyString(groups[j].subject, coll)) < 0
	})
	return groups
}

var frontMatterColls = map[string]collate.Options{
	"word-by-word":     collate.Default(),
	"letter-by-letter": {Scheme: collate.LetterByLetter, GroupParticle: true},
	"mc-as-mac":        {Scheme: collate.WordByWord, McAsMac: true},
}

// frontMatterCorpus is a generated 2k corpus followed by the edge cases,
// with the edge cases also prepended so identical titles arrive in both
// orders.
func frontMatterCorpus() []*model.Work {
	works := edgeFixture()
	works = append(works, gen.Generate(gen.Config{Seed: 7, Works: 2000, ZipfS: 1.1})...)
	return append(works, edgeFixture()...)
}

func TestKeyedTitleOrderMatchesReference(t *testing.T) {
	works := frontMatterCorpus()
	for name, coll := range frontMatterColls {
		got, want := SortTitles(works, coll), refSortByTitle(works, coll)
		for i := range want {
			if got[i].work != want[i] {
				t.Fatalf("%s: position %d holds %q %s, reference has %q %s", name, i,
					got[i].work.Title, got[i].work.Citation, want[i].Title, want[i].Citation)
			}
			if l, wl := got[i].letter, refTitleLetter(want[i].Title, coll); l != wl {
				t.Fatalf("%s: title %q files under %c, reference %c", name, want[i].Title, l, wl)
			}
		}
	}
}

func TestTitleLetterFromKeyMatchesPrimaryTier(t *testing.T) {
	// Every BMP rune, alone and leading a Latin word: the key's first
	// letter or digit must be the primary tier's.
	coll := collate.Default()
	for r := rune(0); r <= 0xFFFF; r++ {
		for _, title := range []string{string(r), string(r) + "x"} {
			if l, wl := titleLetter(collate.KeyString(title, coll)), refTitleLetter(title, coll); l != wl {
				t.Fatalf("title %q: letter %c, reference %c", title, l, wl)
			}
		}
	}
}

func TestKeyedSubjectOrderMatchesReference(t *testing.T) {
	works := frontMatterCorpus()
	for name, coll := range frontMatterColls {
		got, want := GroupSubjects(works, coll), refGroupBySubject(works, coll)
		if len(got) != len(want) {
			t.Fatalf("%s: %d headings, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].subject != want[i].subject {
				t.Fatalf("%s: heading %d is %q, reference %q", name, i, got[i].subject, want[i].subject)
			}
			for j := range want[i].works {
				if got[i].works[j] != want[i].works[j] {
					t.Fatalf("%s: heading %q work %d differs from reference", name, want[i].subject, j)
				}
			}
		}
	}
}

func TestFrontMatterMatchesReference(t *testing.T) {
	works := frontMatterCorpus()
	titleEmit := map[Format]func(context.Context, io.Writer, TitleOrder, Options) error{
		Text: titleIndexText, TSV: titleIndexTSV, Markdown: titleIndexMarkdown,
	}
	subjectEmit := map[Format]func(context.Context, io.Writer, SubjectGroups, Options) error{
		Text: subjectIndexText, TSV: subjectIndexTSV, Markdown: subjectIndexMarkdown,
	}
	for name, coll := range frontMatterColls {
		refTitles := refSortByTitle(works, coll)
		refKeyed := make(TitleOrder, len(refTitles))
		for i, w := range refTitles {
			refKeyed[i] = titleEntry{w, titleLetter(collate.KeyString(indexableTitle(w.Title), coll))}
		}
		refGroups := refGroupBySubject(works, coll)
		for f := range titleEmit {
			for _, noSections := range []bool{false, true} {
				vol := model.Volume{Publication: "Proc. VLDB", Number: 26, Year: 2000}
				opts := Options{Format: f, NoSections: noSections, Volume: vol, RunningHead: "FRONT MATTER"}
				var got, want bytes.Buffer
				if err := TitleIndex(&got, works, coll, opts); err != nil {
					t.Fatal(err)
				}
				if err := titleEmit[f](context.Background(), &want, refKeyed, opts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s %s sections=%v: title index differs from reference", name, f, !noSections)
				}
				got.Reset()
				want.Reset()
				if err := SubjectIndex(&got, works, coll, opts); err != nil {
					t.Fatal(err)
				}
				if err := subjectEmit[f](context.Background(), &want, refGroups, opts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s %s sections=%v: subject index differs from reference", name, f, !noSections)
				}
			}
		}
	}
}

// TestFrontMatterGolden pins the edge-case title and subject indexes to
// output produced by the comparator-keyed implementation.
func TestFrontMatterGolden(t *testing.T) {
	for _, f := range []Format{Text, TSV, Markdown} {
		ext := map[Format]string{Text: "txt", TSV: "tsv", Markdown: "md"}[f]
		var buf bytes.Buffer
		if err := TitleIndex(&buf, edgeFixture(), collate.Default(), Options{Format: f}); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "titles_edge."+ext, buf.Bytes())
		buf.Reset()
		if err := SubjectIndex(&buf, edgeFixture(), collate.Default(), Options{Format: f}); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "subjects_edge."+ext, buf.Bytes())
	}
}

func TestUnsupportedFormatSkipsSorting(t *testing.T) {
	// Rejecting a format costs the error alone, at any corpus size;
	// keying or grouping the corpus first would cost allocations per work.
	const maxAllocs = 8
	for name, index := range map[string]func(io.Writer, []*model.Work, collate.Options, Options) error{
		"title": TitleIndex, "subject": SubjectIndex,
	} {
		for _, n := range []int{10, 2000} {
			works := gen.Generate(gen.Config{Seed: 3, Works: n})
			allocs := testing.AllocsPerRun(5, func() {
				if index(io.Discard, works, collate.Default(), Options{Format: CSV}) == nil {
					t.Fatalf("%s index accepted CSV", name)
				}
			})
			if allocs > maxAllocs {
				t.Errorf("%s index rejecting CSV for %d works: %v allocations, want at most %d",
					name, n, allocs, maxAllocs)
			}
		}
	}
}

func TestTitleIndexAllocsLinear(t *testing.T) {
	// Keys built per comparison would cost O(log n) allocations per
	// work; building each once keeps the total within c·n.
	const n, perWork = 2000, 24
	works := gen.Generate(gen.Config{Seed: 5, Works: n})
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(3, func() {
		buf.Reset()
		if err := TitleIndex(&buf, works, collate.Default(), Options{Format: TSV}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > perWork*n {
		t.Errorf("TSV title index of %d works: %v allocations, want at most %d", n, allocs, perWork*n)
	}
	t.Logf("%.1f allocations per work", allocs/n)
}

// countdownCtx reports no error for its first n Err calls and
// context.Canceled after: a client that hangs up mid-render.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestFrontMatterCanceledStopsAtSection(t *testing.T) {
	// Canceled before it starts, an index writes nothing; canceled after
	// its first two sections (letters or headings), it stops at the
	// third with ctx.Err(), and never reaches the end of the corpus.
	works := frontMatterCorpus()
	coll := collate.Default()
	titles := func() TitleOrder { return SortTitles(works, coll) }
	subjects := func() SubjectGroups { return GroupSubjects(works, coll) }
	for _, f := range []Format{Text, TSV, Markdown} {
		for name, write := range map[string]func(context.Context, io.Writer) error{
			"title": func(ctx context.Context, w io.Writer) error {
				return WriteTitleIndex(ctx, w, titles, Options{Format: f})
			},
			"subject": func(ctx context.Context, w io.Writer) error {
				return WriteSubjectIndex(ctx, w, subjects, Options{Format: f})
			},
		} {
			var full, buf bytes.Buffer
			if err := write(context.Background(), &full); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := write(ctx, &buf); err != context.Canceled || buf.Len() != 0 {
				t.Errorf("%s %s, canceled first: err %v and %d bytes, want context.Canceled and none", name, f, err, buf.Len())
			}
			// One Err call precedes the emitter's first section.
			if err := write(&countdownCtx{context.Background(), 3}, &buf); err != context.Canceled {
				t.Errorf("%s %s, canceled mid-render: err %v, want context.Canceled", name, f, err)
			}
			if buf.Len() >= full.Len() {
				t.Errorf("%s %s, canceled mid-render: wrote %d of %d bytes", name, f, buf.Len(), full.Len())
			}
		}
	}
}
