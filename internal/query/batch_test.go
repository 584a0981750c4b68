package query

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/collate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/model"
)

// fingerprintEngine reduces an engine to everything AddBatch touches:
// index stats, term count, metrics summary, tracker fingerprint, subject
// headings with counts, and a citation-ordered ID walk of the corpus.
func fingerprintEngine(t *testing.T, e *Engine) string {
	t.Helper()
	out := fmt.Sprintf("stats=%+v terms=%d metrics=%+v tracker=%s subjects=%v ids=",
		e.idx.Stats(), e.inv.Terms(), e.met.Summary(), e.met.Fingerprint(), e.Subjects())
	e.byCitation.Ascend(func(_ []byte, we *workEntry) bool {
		out += fmt.Sprint(we.w.ID, ";")
		return true
	})
	e.byYear.Ascend(func(_ []byte, we *workEntry) bool {
		out += fmt.Sprint(we.w.ID, ":")
		return true
	})
	return out
}

func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 7, Works: 400, ZipfS: 1.1})
	seq := New(collate.Default())
	for _, w := range works {
		if err := seq.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{1, 7, 64, 400} {
		batch := New(collate.Default())
		for start := 0; start < len(works); start += chunk {
			end := min(start+chunk, len(works))
			if err := batch.AddBatch(works[start:end]); err != nil {
				t.Fatalf("AddBatch chunk=%d: %v", chunk, err)
			}
		}
		if got, want := fingerprintEngine(t, batch), fingerprintEngine(t, seq); got != want {
			t.Fatalf("chunk=%d: batched engine differs from sequential", chunk)
		}
		// Ordered reads must agree too.
		for _, q := range []string{"surface mining", "coal or gas", "reclam*"} {
			a, b := seq.TitleSearch(q, 0), batch.TitleSearch(q, 0)
			if len(a) != len(b) {
				t.Fatalf("chunk=%d: search %q: %d vs %d hits", chunk, q, len(a), len(b))
			}
			for i := range a {
				if a[i].ID != b[i].ID {
					t.Fatalf("chunk=%d: search %q result %d: %d vs %d", chunk, q, i, a[i].ID, b[i].ID)
				}
			}
		}
		if batch.Graph().Fingerprint() != graph.NewFromWorks(0, batch.AllWorksView()).Fingerprint() {
			t.Fatalf("chunk=%d: incremental graph differs from rebuild", chunk)
		}
	}
}

func TestAddBatchInvalidWorkLeavesEngineUntouched(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 3, Works: 100})
	e := New(collate.Default())
	if err := e.AddBatch(works[:50]); err != nil {
		t.Fatal(err)
	}
	before := fingerprintEngine(t, e)

	bad := append([]*model.Work(nil), works[50:]...)
	invalid := works[60].Clone()
	invalid.Title = "" // fails validation
	bad[5] = invalid
	if err := e.AddBatch(bad); err == nil {
		t.Fatal("batch with invalid work accepted")
	}
	if after := fingerprintEngine(t, e); after != before {
		t.Fatal("failed batch mutated the engine")
	}

	noID := works[70].Clone()
	noID.ID = 0
	if err := e.AddBatch([]*model.Work{works[51].Clone(), noID}); err == nil {
		t.Fatal("batch with zero-ID work accepted")
	}
	if after := fingerprintEngine(t, e); after != before {
		t.Fatal("failed zero-ID batch mutated the engine")
	}
}

func TestAddBatchDuplicateIDsLastWins(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 5, Works: 20})
	a := works[3].Clone()
	b := works[4].Clone()
	b.ID = a.ID
	b.Title = "The Survivor Edition"

	seq := New(collate.Default())
	if err := seq.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := seq.Add(b); err != nil {
		t.Fatal(err)
	}
	batch := New(collate.Default())
	if err := batch.AddBatch([]*model.Work{a, b}); err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintEngine(t, batch), fingerprintEngine(t, seq); got != want {
		t.Fatal("duplicate-ID batch differs from sequential re-add")
	}
	w, ok := batch.Work(a.ID)
	if !ok || w.Title != "The Survivor Edition" {
		t.Fatalf("last duplicate did not win: %+v", w)
	}
	if batch.Len() != 1 {
		t.Errorf("Len = %d, want 1", batch.Len())
	}
}

func TestAddBatchReplacesExistingIDs(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 11, Works: 60})
	e := New(collate.Default())
	if err := e.AddBatch(works[:40]); err != nil {
		t.Fatal(err)
	}
	// Replace 10 indexed works (new titles/subjects under old IDs) while
	// also adding 20 fresh ones, all in one batch.
	replacement := make([]*model.Work, 0, 30)
	for i := 0; i < 10; i++ {
		cp := works[i].Clone()
		cp.Title = fmt.Sprintf("Replaced Title %d", i)
		cp.Subjects = []string{"Replacement Studies"}
		replacement = append(replacement, cp)
	}
	replacement = append(replacement, works[40:]...)
	if err := e.AddBatch(replacement); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 60 {
		t.Fatalf("Len = %d, want 60", e.Len())
	}
	for i := 0; i < 10; i++ {
		w, ok := e.Work(works[i].ID)
		if !ok || w.Title != fmt.Sprintf("Replaced Title %d", i) {
			t.Fatalf("work %d not replaced: %+v", works[i].ID, w)
		}
	}
	if got := e.BySubjectView(context.Background(), "Replacement Studies", 0); len(got) != 10 {
		t.Fatalf("subject posting holds %d works, want 10", len(got))
	}
	if e.Graph().Fingerprint() != graph.NewFromWorks(0, e.AllWorksView()).Fingerprint() {
		t.Fatal("graph inconsistent after replacement batch")
	}
	// Removing everything batched must leave a pristine engine.
	for _, w := range replacement {
		e.Remove(w.ID)
	}
	for i := 10; i < 40; i++ {
		e.Remove(works[i].ID)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after removing all, want 0", e.Len())
	}
	if got := len(e.Subjects()); got != 0 {
		t.Fatalf("%d subject postings survived full removal", got)
	}
}

func TestAddBatchEmptyAndSubjectDuplicates(t *testing.T) {
	e := New(collate.Default())
	if err := e.AddBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	// A work listing the same subject twice must file once, exactly as
	// the sequential path dedupes.
	w := &model.Work{
		ID:       1,
		Title:    "Doubled Subject",
		Authors:  []model.Author{{Family: "Dup"}},
		Citation: model.Citation{Volume: 1, Page: 1, Year: 1990},
		Subjects: []string{"Mining Law", "Mining Law"},
	}
	if err := e.AddBatch([]*model.Work{w}); err != nil {
		t.Fatal(err)
	}
	if got := e.BySubjectView(context.Background(), "Mining Law", 0); len(got) != 1 {
		t.Fatalf("duplicate subject filed %d postings, want 1", len(got))
	}
}

// TestPostingRunMerge checks the subject-posting merge AddBatch files
// with against a reference: every filed ref and run entry, stably
// sorted by key, keeping the first of equal keys — so a filed entry
// beats a run entry with its key, and a work listed twice files once.
func TestPostingRunMerge(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	entry := func(k int) *workEntry {
		return &workEntry{key: []byte(fmt.Sprintf("year%06d", k))}
	}
	for iter := 0; iter < 500; iter++ {
		var filed []*workEntry
		for k := 0; k < 200; k++ {
			if r.Intn(4) == 0 {
				filed = append(filed, entry(k))
			}
		}
		var run []*workEntry
		for n := r.Intn(12); len(run) < n; {
			if len(run) > 0 && r.Intn(5) == 0 {
				run = append(run, run[r.Intn(len(run))]) // the same work again
				continue
			}
			run = append(run, entry(r.Intn(220)))
		}
		ref := append(append([]*workEntry(nil), filed...), run...)
		sort.SliceStable(ref, func(i, j int) bool { return bytes.Compare(ref[i].citKey(), ref[j].citKey()) < 0 })
		want := ref[:0:0]
		for _, we := range ref {
			if n := len(want); n == 0 || !bytes.Equal(want[n-1].citKey(), we.citKey()) {
				want = append(want, we)
			}
		}
		pr := &postingRun{filed: filed, run: append([]*workEntry(nil), run...)}
		got := pr.merge().refs
		if len(got) != len(want) {
			t.Fatalf("iter %d: merged %d refs, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: ref %d = %s, want %s (filed entry must win a tie)", iter, i, got[i].citKey(), want[i].citKey())
			}
		}
	}
}
