// Limit-aware ordered reads against full-sort references: title search
// and year ranges must answer exactly what filtering the whole corpus,
// sorting it in citation order and truncating would, at every limit,
// and again after replacements, deletes and a delete-heavy batch. The
// shards=N subtests open with that Options.Shards value, which every
// accepted value leaves inert.
package authorindex

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/inverted"
)

// scrambledCorpus is a generated corpus whose IDs are a random
// permutation, so ID order and citation order disagree, and a third of
// whose years are redrawn, so multi-year ranges interleave in citation
// order. In the stock generator both orders agree, where a read that
// returned ID order or year-major order would look right.
func scrambledCorpus(n int, r *rand.Rand) []Work {
	works := gen.Generate(gen.Config{Seed: 8, Works: n, ZipfS: 1.1})
	perm := r.Perm(n)
	out := make([]Work, n)
	for i, w := range works {
		cp := *w.Clone()
		cp.ID = WorkID(perm[i] + 1)
		if r.Intn(3) == 0 {
			cp.Citation.Year = 1975 + r.Intn(10)
		}
		out[i] = cp
	}
	return out
}

// refSearch evaluates q by tokenizing every title in the model corpus.
func refSearch(corpus map[WorkID]Work, q string, limit int) []WorkID {
	pq := inverted.ParseQuery(q)
	has := func(toks []string, a inverted.Atom) bool {
		return slices.ContainsFunc(toks, func(tok string) bool {
			return tok == a.Term || a.Prefix && strings.HasPrefix(tok, a.Term)
		})
	}
	return refSelect(corpus, limit, func(w *Work) bool {
		toks := inverted.Tokenize(w.Title)
		if len(pq.All) == 0 && len(pq.Any) == 0 {
			return false
		}
		for _, a := range pq.All {
			if !has(toks, a) {
				return false
			}
		}
		if len(pq.Any) > 0 && !slices.ContainsFunc(pq.Any, func(a inverted.Atom) bool { return has(toks, a) }) {
			return false
		}
		return !slices.ContainsFunc(pq.None, func(a inverted.Atom) bool { return has(toks, a) })
	})
}

// refSelect filters the whole corpus, sorts every match in citation
// order and truncates to limit (<=0: all).
func refSelect(corpus map[WorkID]Work, limit int, match func(*Work) bool) []WorkID {
	var hits []*Work
	for id := range corpus {
		w := corpus[id]
		if match(&w) {
			hits = append(hits, &w)
		}
	}
	slices.SortFunc(hits, compareWorks)
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	ids := make([]WorkID, len(hits))
	for i, w := range hits {
		ids[i] = w.ID
	}
	return ids
}

// compareWorks is the citation order the engine's precomputed keys
// encode: Citation.Compare (volume, page, year), then title, then ID.
func compareWorks(a, b *Work) int {
	if c := a.Citation.Compare(b.Citation); c != 0 {
		return c
	}
	if c := strings.Compare(a.Title, b.Title); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// shuffledIDs returns the corpus IDs in an order drawn from r alone.
func shuffledIDs(corpus map[WorkID]Work, r *rand.Rand) []WorkID {
	ids := make([]WorkID, 0, len(corpus))
	for id := range corpus {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func workIDs(ws []*Work) []WorkID {
	ids := make([]WorkID, len(ws))
	for i, w := range ws {
		ids[i] = w.ID
	}
	return ids
}

func checkLimitReads(t *testing.T, ix *Index, corpus map[WorkID]Work, stage string) {
	t.Helper()
	queries := []string{
		"mining",                 // one common term
		"surface mining",         // AND
		"taxation or liability",  // OR
		"mining -surface",        // NOT
		"reclam*",                // prefix
		"tax* or water -federal", // prefix inside OR, with NOT
		"nosuchterm",
	}
	for _, limit := range []int{1, 20, 0} {
		for _, q := range queries {
			got, want := workIDs(ix.Search(q, limit)), refSearch(corpus, q, limit)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Search(%q, %d) = %v, want %v", stage, q, limit, got, want)
			}
		}
		for _, yr := range [][2]int{{1975, 1977}, {1970, 1990}, {1978, 1978}, {1900, 2100}, {2200, 2300}} {
			from, to := yr[0], yr[1]
			got := workIDs(ix.YearRange(from, to, limit))
			want := refSelect(corpus, limit, func(w *Work) bool { return w.Citation.Year >= from && w.Citation.Year <= to })
			if !slices.Equal(got, want) {
				t.Fatalf("%s: YearRange(%d, %d, %d) = %v, want %v", stage, from, to, limit, got, want)
			}
		}
	}
}

func TestLimitReadsMatchFullSort(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(shards)))
			dir := t.TempDir()
			works := scrambledCorpus(1500, r)
			corpus := make(map[WorkID]Work, len(works))
			ix := openShards(t, dir, shards)
			if _, err := ix.AddBatch(works); err != nil {
				t.Fatal(err)
			}
			for _, w := range works {
				corpus[w.ID] = w
			}
			// The corpus must make the limits and the orders matter.
			if n := len(refSearch(corpus, "mining", 0)); n <= 20 {
				t.Fatalf("only %d works match mining", n)
			}
			inRange := func(w *Work) bool { return w.Citation.Year >= 1975 && w.Citation.Year <= 1977 }
			cit := refSelect(corpus, 20, inRange)
			if slices.IsSorted(cit) {
				t.Fatal("citation order equals ID order in the first 20 of 1975-1977")
			}
			if slices.IsSortedFunc(cit, func(a, b WorkID) int { return corpus[a].Citation.Year - corpus[b].Citation.Year }) {
				t.Fatal("citation order equals year order in the first 20 of 1975-1977")
			}
			checkLimitReads(t, ix, corpus, "filed by batches")
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}

			// A reopen bulk-loads the engine: title postings come from
			// inverted.Load.
			ix = openShards(t, dir, shards)
			defer ix.Close()
			checkLimitReads(t, ix, corpus, "bulk-loaded")

			// Replace 100 works with another work's title and a new year,
			// add 50 fresh ones, delete 40.
			var batch []Work
			for i := 0; i < 150; i++ {
				w := works[r.Intn(len(works))]
				w.Title = works[r.Intn(len(works))].Title
				w.Citation.Year = 1975 + r.Intn(10)
				if i >= 100 {
					w.ID = WorkID(len(works) + i)
				}
				batch = append(batch, w)
			}
			if _, err := ix.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, w := range batch {
				corpus[w.ID] = w
			}
			gone := shuffledIDs(corpus, r)[:40]
			if err := ix.DeleteBatch(gone); err != nil {
				t.Fatal(err)
			}
			for _, id := range gone {
				delete(corpus, id)
			}
			checkLimitReads(t, ix, corpus, "after replace and delete")

			// Delete most of the corpus in one batch.
			gone = shuffledIDs(corpus, r)
			gone = gone[:len(gone)*7/10]
			if err := ix.DeleteBatch(gone); err != nil {
				t.Fatal(err)
			}
			for _, id := range gone {
				delete(corpus, id)
			}
			checkLimitReads(t, ix, corpus, "after a delete-heavy batch")

			// Bulk-loaded entries must be the ones later writes unfile.
			ids := shuffledIDs(corpus, r)
			batch = batch[:0]
			for _, id := range ids[:30] {
				w := corpus[id]
				w.Title = "Reclamation of " + w.Title
				batch = append(batch, w)
			}
			if _, err := ix.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, w := range batch {
				corpus[w.ID] = w
			}
			if err := ix.DeleteBatch(ids[30:60]); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids[30:60] {
				delete(corpus, id)
			}
			checkLimitReads(t, ix, corpus, "after a delete-heavy batch, replace and delete")
		})
	}
}

// TestAuthorPagesAreCopies: the engine hands the facade live views of
// its headings and the facade clones only the page it returns, so a
// caller that edits every returned entry (heading, works, their
// authors and subjects, cross-references) changes nothing a later read
// sees.
func TestAuthorPagesAreCopies(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 12, Works: 600, ZipfS: 1.2})
	batch := make([]Work, len(works))
	for i, w := range works {
		batch[i] = *w
	}
	ix := openT(t, "")
	defer ix.Close()
	if _, err := ix.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	first := ix.AuthorsPage("", 3)
	for _, e := range first {
		if err := ix.AddSeeAlso(e.Author.Display(), "Zed, Other"); err != nil {
			t.Fatal(err)
		}
	}
	after := first[0].Author.Display()
	for _, r := range []struct {
		name string
		read func() []*Entry
	}{
		{"Authors", func() []*Entry { return ix.Authors("s", 20) }},
		{"AuthorsPage", func() []*Entry { return ix.AuthorsPage("", 20) }},
		{"AuthorsAfter", func() []*Entry { return ix.AuthorsPage(after, 20) }},
	} {
		name, read := r.name, r.read
		got := read()
		if len(got) == 0 {
			t.Fatalf("%s: empty page", name)
		}
		want := make([]*Entry, len(got))
		for i, e := range got {
			want[i] = e.Clone()
		}
		scribble(got)
		if again := read(); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: editing a returned page changed a later read", name)
		}
	}
}

// scribble edits every field of every entry a read returned: heading,
// works, their authors and subjects, cross-references.
func scribble(entries []*Entry) {
	for _, e := range entries {
		e.Author.Family = "Mutated"
		for i := range e.SeeAlso {
			e.SeeAlso[i].Family = "Mutated"
		}
		for i := range e.Works {
			w := &e.Works[i]
			w.Title = "mutated"
			for j := range w.Authors {
				w.Authors[j].Family = "Mutated"
			}
			for j := range w.Subjects {
				w.Subjects[j] = "mutated"
			}
		}
	}
}

// TestAuthorAndSectionsAreCopies: Author and Sections copy only the
// entries they return, so a caller that edits every entry they return
// changes nothing a later read or a render sees.
func TestAuthorAndSectionsAreCopies(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 12, Works: 600, ZipfS: 1.2})
	batch := make([]Work, len(works))
	for i, w := range works {
		batch[i] = *w
	}
	ix := openT(t, "")
	defer ix.Close()
	if _, err := ix.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	var busiest *Entry
	for _, s := range ix.Sections() {
		for _, e := range s.Entries {
			if busiest == nil || len(e.Works) > len(busiest.Works) {
				busiest = e
			}
		}
	}
	heading := busiest.Author.Display()
	if err := ix.AddSeeAlso(heading, "Zed, Other"); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := ix.Render(&before, RenderOptions{Format: Text}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		read func() []*Entry
	}{
		{"Author", func() []*Entry {
			e, ok := ix.Author(heading)
			if !ok {
				t.Fatalf("Author(%q) missing", heading)
			}
			return []*Entry{e}
		}},
		{"Sections", func() []*Entry {
			var all []*Entry
			for _, s := range ix.Sections() {
				all = append(all, s.Entries...)
			}
			return all
		}},
	} {
		name, read := r.name, r.read
		got := read()
		want := make([]*Entry, len(got))
		for i, e := range got {
			want[i] = e.Clone()
		}
		scribble(got)
		if again := read(); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: editing a returned entry changed a later read", name)
		}
	}
	var after bytes.Buffer
	if err := ix.Render(&after, RenderOptions{Format: Text}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("editing returned entries changed the render")
	}
}
