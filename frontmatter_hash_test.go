package authorindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// publishFrontMatter appends the front matter the publish workload
// builds, through the facade, to buf: the paginated text author index
// with its statistics and network appendices, then the title and subject
// indexes in text.
func publishFrontMatter(t testing.TB, ix *Index, buf *bytes.Buffer, pageWidth int) {
	t.Helper()
	opts := RenderOptions{Format: Text, PageLength: 60, PageWidth: pageWidth, Statistics: true, Network: true}
	if err := ix.Render(buf, opts); err != nil {
		t.Fatal(err)
	}
	if err := ix.RenderTitleIndex(buf, RenderOptions{Format: Text, PageWidth: pageWidth}); err != nil {
		t.Fatal(err)
	}
	if err := ix.RenderSubjectIndex(buf, RenderOptions{Format: Text, PageWidth: pageWidth}); err != nil {
		t.Fatal(err)
	}
}

// publishCorpus is the publish workload's corpus shape: seed 1, a third
// as many authors as works, Zipf 1.1, no students.
func publishCorpus(works int) []*Work {
	return GenerateCorpus(CorpusConfig{Seed: 1, Works: works, Authors: works / 3, ZipfS: 1.1, StudentProb: -1})
}

// frontMatterIndex opens a fresh index holding works.
func frontMatterIndex(t testing.TB, works []*Work) *Index {
	t.Helper()
	ix, err := Open(t.TempDir(), &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	batch := make([]Work, len(works))
	for i, w := range works {
		batch[i] = *w
		batch[i].ID = 0
	}
	if _, err := ix.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	return ix
}

// edgeFrontMatterCorpus holds text that stresses wrapping and padding:
// vertical tabs and form feeds, runs of spaces, leading and trailing
// blanks, U+0085, U+00A0 and U+2003 between words, multi-byte runes, a
// word cut inside a multi-byte rune, an invalid byte, and words longer
// than every column. Titles and names cannot hold tabs or newlines, so
// the other ASCII blanks stand in for them.
func edgeFrontMatterCorpus() []*Work {
	long := "Wolfeschlegelsteinhausenbergerdorffvoralternwarengewissenhaftschaferswessen"
	mk := func(title, cite string, authors []Author, subjects ...string) *Work {
		c, err := ParseCitation(cite)
		if err != nil {
			panic(err)
		}
		return &Work{Title: title, Citation: c, Authors: authors, Subjects: subjects}
	}
	a := func(family, given string) Author { return Author{Family: family, Given: given} }
	return []*Work{
		mk("Runs  of   spaces    between     words in a title long enough to wrap twice over", "90:1 (1988)",
			[]Author{a("Spacey", "Ann  B."), a("Blank", "Carl")}, "Whitespace  Law"),
		mk("  Leading and trailing blanks  ", "90:2 (1988)", []Author{a("Edge", " Dora ")}, "Whitespace  Law"),
		mk("Vertical\vtab and form\ffeed between words that wrap at the column edge", "90:3 (1988)",
			[]Author{a("Tabb", "Eve\vF.")}, "Control"),
		mk("Next\u0085line, no break and em space between the words of this title", "90:4 (1988)",
			[]Author{a("Nbsp", "Gil H."), a("Em", "Ida J.")}, "Unicode Spaces"),
		mk("日本の法と社会における知的財産権の保護に関する比較法的研究序説その一", "90:5 (1988)",
			[]Author{a("田中", "太郎"), a("Müller-Lüdenscheidt", "Jörg Ölaf")}, "比較法"),
		mk("Émigré naïveté: façade, cœur and Ωmega ∑ — ‘quoted’ “text” … with ellipsis", "90:6 (1988)",
			[]Author{a("Ægir", "Øyvind"), a("Şahin", "Çağrı")}, "Émigré"),
		mk(long+" and "+long+long, "90:7 (1988)",
			[]Author{a(long, "Hubert Blaine"), a("Short", long)}, long),
		mk("Emoji 🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉 runs", "90:8 (1988)",
			[]Author{a("Party", "Pam")}, "Emoji"),
		mk("Invalid \xff byte inside a word: abc\xfedefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyz", "90:9 (1988)",
			[]Author{a("Broken", "Bytes\xfe")}),
		mk("A", "1:1 (1600)", []Author{a("X", "")}),
		mk("The  Article  Dropped", "91:1 (1989)", []Author{a("Spacey", "Ann  B.")}, "Whitespace  Law", "Control"),
	}
}

// TestPublishFrontMatterHash pins the publish front matter byte for
// byte: its length and sha256 for the generated 4k-work corpus at the
// default width and for the edge corpus at the default and the minimum
// width. The authbench publish check only compares builds with each
// other; this is the check that the artifact itself does not change.
// Page widths clamp to 40, so columns narrower than the edge corpus
// reaches here are covered by the render package's wrap tests, down to
// width 1.
func TestPublishFrontMatterHash(t *testing.T) {
	gen4k := publishCorpus(4000)
	edge := edgeFrontMatterCorpus()
	for _, c := range []struct {
		name    string
		works   []*Work
		width   int
		wantLen int
		wantSum string
	}{
		{"generated-4k", gen4k, 0, 2178314, "e99bb2d079e5e0b173cc693312c59e8fe1c0a1c7d7a3162e4434d306b811e6a8"},
		{"edge-78", edge, 0, 14093, "5f8cf47d41923da3620882108174af3658e67d9356dcab9f0d774ebd28bc1e3b"},
		{"edge-40", edge, 40, 14875, "99bdd8b3dfd83eedc77ab52e6d6e0d58c347e834d6acd9a342f5cdc3eb74f9e0"},
	} {
		var buf bytes.Buffer
		publishFrontMatter(t, frontMatterIndex(t, c.works), &buf, c.width)
		out := buf.Bytes()
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); len(out) != c.wantLen || got != c.wantSum {
			t.Errorf("%s: front matter is %d bytes, sha256 %s; want %d bytes, sha256 %s",
				c.name, len(out), got, c.wantLen, c.wantSum)
		}
	}
}

// TestFrontMatterAllocsPerWork bounds the heap allocations of one full
// text front-matter build, per stored work. Formatting each output line
// through fmt, wrapping by string concatenation and sorting titles
// through a reflection swapper cost about 93 allocations per work; a
// build that appends its rows into one buffer costs a small fraction.
func TestFrontMatterAllocsPerWork(t *testing.T) {
	const n, perWork = 3000, 10
	ix := frontMatterIndex(t, publishCorpus(n))
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(3, func() {
		buf.Reset()
		publishFrontMatter(t, ix, &buf, 0)
	})
	t.Logf("%.1f allocations per work", allocs/n)
	if allocs > perWork*n {
		t.Errorf("front matter of %d works: %.0f allocations, want at most %d", n, allocs, perWork*n)
	}
}
