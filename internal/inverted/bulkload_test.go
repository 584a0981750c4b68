package inverted

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// TestBulkLoadMatchesIncremental: Load over a corpus must be
// indistinguishable from Add-ing every doc to an empty index — same doc
// and term counts, same postings per term, same query results — and the
// two must stay identical under subsequent Add/Remove traffic.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 9, Works: 1200, ZipfS: 1.1})
	inc := New(byID)
	docs := make([]Doc[model.WorkID], 0, len(works))
	for _, w := range works {
		inc.Add(w.ID, w.Title)
		docs = append(docs, Doc[model.WorkID]{Ref: w.ID, Text: w.Title})
	}
	bulk := Load(byID, docs)
	compareIndexes(t, bulk, inc, works)

	// Subsequent mutations on a bulk-built index behave identically.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			w := works[r.Intn(len(works))]
			inc.Remove(w.ID, w.Title)
			bulk.Remove(w.ID, w.Title)
		} else {
			id := model.WorkID(10_000 + i)
			text := fmt.Sprintf("Fresh Title %d on Surface Mining", i)
			inc.Add(id, text)
			bulk.Add(id, text)
		}
	}
	compareIndexes(t, bulk, inc, works)
}

func TestBulkLoadEmptyAndStopwordDocs(t *testing.T) {
	bulk := Load(byID, []Doc[model.WorkID]{
		{Ref: 1, Text: "the of and"}, // all stopwords: indexes nothing
		{Ref: 2, Text: "Coalbed Methane"},
	})
	if bulk.Docs() != 1 {
		t.Fatalf("Docs = %d, want 1 (stopword-only doc contributes nothing)", bulk.Docs())
	}
	if got := bulk.Postings("coalbed"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Postings(coalbed) = %v", got)
	}
	if empty := Load(byID, nil); empty.Docs() != 0 || empty.Terms() != 0 {
		t.Fatalf("Load(nil) not empty: %d docs, %d terms", empty.Docs(), empty.Terms())
	}
}

// TestBulkLoadRejectsUnorderedDocs: ascending refs are Load's
// precondition, not something it repairs.
func TestBulkLoadRejectsUnorderedDocs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Load accepted docs out of ref order")
		}
	}()
	Load(byID, []Doc[model.WorkID]{{Ref: 2, Text: "Coalbed Methane"}, {Ref: 1, Text: "Surface Mining"}})
}

func compareIndexes(t *testing.T, bulk, inc *Index[model.WorkID], works []*model.Work) {
	t.Helper()
	if bulk.Docs() != inc.Docs() {
		t.Fatalf("Docs: bulk %d, incremental %d", bulk.Docs(), inc.Docs())
	}
	if bulk.Terms() != inc.Terms() {
		t.Fatalf("Terms: bulk %d, incremental %d", bulk.Terms(), inc.Terms())
	}
	for _, w := range works {
		for _, tok := range Tokenize(w.Title) {
			b, i := bulk.Postings(tok), inc.Postings(tok)
			if !reflect.DeepEqual(b, i) {
				t.Fatalf("Postings(%q): bulk %v, incremental %v", tok, b, i)
			}
		}
	}
	for _, q := range []string{"surface mining", "coal or gas", "mining -surface", "reclam*", "liability"} {
		if b, i := bulk.Search(q), inc.Search(q); !reflect.DeepEqual(b, i) {
			t.Fatalf("Search(%q): bulk %v, incremental %v", q, b, i)
		}
	}
}
