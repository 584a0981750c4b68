package inverted

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestAddBatchMatchesSequentialAdds: filing a batch through AddBatch
// leaves the index exactly as Adding its docs one at a time does —
// every term's postings, Docs() and Terms() — on empty and populated
// indexes, with repeated tokens inside a title, stopword-only and empty
// titles, re-adds of filed docs, and a doc repeated in its own batch.
func TestAddBatchMatchesSequentialAdds(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	words := append([]string{"the", "of", "and"}, vocab...)
	title := func() string {
		if r.Intn(10) == 0 {
			return "The of and" // stopwords only
		}
		n := r.Intn(7)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		if n > 0 && r.Intn(3) == 0 {
			parts = append(parts, parts[0]) // a repeated token
		}
		return strings.Join(parts, " ")
	}
	for round := 0; round < 200; round++ {
		seq, bat := New(byID), New(byID)
		texts := map[model.WorkID]string{}
		for batch := 0; batch < 1+r.Intn(4); batch++ {
			var docs []Doc[model.WorkID]
			inBatch := map[model.WorkID]bool{}
			for n := r.Intn(12); len(docs) < n; {
				id := model.WorkID(1 + r.Intn(40))
				text, filed := texts[id]
				switch {
				case inBatch[id] && r.Intn(2) == 0:
					// The same doc twice in one batch, same text.
				case inBatch[id], filed && r.Intn(2) == 0:
					continue
				case !filed:
					text = title()
					texts[id] = text
				}
				// A filed doc comes back with its filed text: a re-add.
				inBatch[id] = true
				docs = append(docs, Doc[model.WorkID]{Ref: id, Text: text})
			}
			for _, d := range docs {
				seq.Add(d.Ref, d.Text)
			}
			bat.AddBatch(docs)
			if seq.Docs() != bat.Docs() || seq.Terms() != bat.Terms() {
				t.Fatalf("round %d batch %d: sequential %d docs/%d terms, batch %d docs/%d terms",
					round, batch, seq.Docs(), seq.Terms(), bat.Docs(), bat.Terms())
			}
			for _, w := range words {
				if s, b := seq.Postings(w), bat.Postings(w); !reflect.DeepEqual(s, b) {
					t.Fatalf("round %d batch %d: Postings(%q) sequential %v, batch %v", round, batch, w, s, b)
				}
			}
		}
	}
}

// TestAddBatchLeavesClonesFrozen: a batch files fresh postings lists,
// so a Clone taken before it keeps answering from the old ones.
func TestAddBatchLeavesClonesFrozen(t *testing.T) {
	ix := New(byID)
	ix.AddBatch([]Doc[model.WorkID]{{Ref: 2, Text: "coal mining"}, {Ref: 4, Text: "coal gas"}})
	frozen := ix.Clone()
	ix.AddBatch([]Doc[model.WorkID]{{Ref: 3, Text: "coal"}, {Ref: 1, Text: "mining coal"}})
	if got := frozen.Postings("coal"); !reflect.DeepEqual(got, []model.WorkID{2, 4}) {
		t.Fatalf("clone saw the batch: Postings(coal) = %v", got)
	}
	if got := ix.Postings("coal"); !reflect.DeepEqual(got, []model.WorkID{1, 2, 3, 4}) {
		t.Fatalf("Postings(coal) = %v, want [1 2 3 4]", got)
	}
}
