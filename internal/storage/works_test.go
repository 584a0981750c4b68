package storage

import (
	"sort"
	"testing"

	"repro/internal/model"
)

// TestWorksBulkLoadHandOff: ForEach must hand over every stored work
// exactly once, and the handed-out references must stay stable
// (read-only shared records) across later store mutations — the
// hand-off contract the index's bulk load relies on.
func TestWorksBulkLoadHandOff(t *testing.T) {
	s := openT(t, "")
	defer s.Close()
	for i := 0; i < 40; i++ {
		if _, err := put(s, work("Bulk Title", 70, i+1, 1967, "Family")); err != nil {
			t.Fatal(err)
		}
	}
	var got []*model.Work
	if err := s.ForEach(func(w *model.Work) error {
		got = append(got, w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("ForEach handed over %d works, want 40", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	seen := map[uint64]bool{}
	for _, w := range got {
		if seen[uint64(w.ID)] {
			t.Fatalf("duplicate ID %d from ForEach", w.ID)
		}
		seen[uint64(w.ID)] = true
	}
	// Replacing and deleting in the store must not disturb the handed-out
	// references: PutBatch swaps in a fresh record rather than mutating.
	victim := got[0]
	repl := work("Replacement", 71, 5, 1968, "Other")
	repl.ID = victim.ID
	if _, err := put(s, repl); err != nil {
		t.Fatal(err)
	}
	if err := del(s, got[1].ID); err != nil {
		t.Fatal(err)
	}
	if victim.Title != "Bulk Title" || got[1].Title != "Bulk Title" {
		t.Fatal("store mutation changed a handed-out work in place")
	}
	fresh, ok := get(s, victim.ID)
	if !ok || fresh.Title != "Replacement" {
		t.Fatalf("store did not apply the replacement: %+v", fresh)
	}
}
