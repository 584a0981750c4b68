package metrics

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// TestTrackerObjectsPerHeading pins the tracker's heap objects per
// heading. Columns and adjacency rows leave each heading its string, at
// most one adjacency row and at most one per-year slice; the map-keyed
// layout held about ten objects per heading, and every GC cycle marks
// each of them.
func TestTrackerObjectsPerHeading(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 1, Works: 10_000, ZipfS: 1.1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(Harmonic)
	e.Rebuild(works)
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(e.Len())
	runtime.KeepAlive(works)
	runtime.KeepAlive(e)
	if per > 3 {
		t.Fatalf("tracker holds %.2f heap objects per heading over %d headings, want <= 3", per, e.Len())
	}
	t.Logf("%.2f heap objects per heading over %d headings", per, e.Len())
}

// TestHeadingIDReuse removes works until headings vanish and their IDs
// are freed, then re-adds them in reverse order, so headings come back
// under other headings' IDs. The tracker must equal a from-scratch
// Rebuild byte for byte, and the ID space must not grow.
func TestHeadingIDReuse(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 9, Works: 1_000, ZipfS: 1.2})
	for _, s := range []Scheme{Harmonic, Fractional} {
		e := NewEngine(s)
		for _, w := range works {
			e.Add(w)
		}
		ids := len(e.works)
		was := make(map[string]uint32, len(e.authors))
		for h, id := range e.authors {
			was[h] = id
		}
		for _, w := range works[:len(works)/2] {
			e.Remove(w)
		}
		if e.Len() >= ids {
			t.Fatalf("%v: removing half the corpus freed no heading", s)
		}
		fresh := NewEngine(s)
		fresh.Rebuild(works[len(works)/2:])
		if e.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("%v: tracker after removals differs from a rebuild", s)
		}
		for i := len(works)/2 - 1; i >= 0; i-- {
			e.Add(works[i])
		}
		if len(e.works) != ids {
			t.Fatalf("%v: ID space grew from %d to %d: freed IDs not reused", s, ids, len(e.works))
		}
		moved := 0
		for h, id := range e.authors {
			if was[h] != id {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("%v: every heading kept its ID; reuse goes unchecked", s)
		}
		fresh.Rebuild(works)
		if e.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("%v: tracker after re-adds differs from a rebuild", s)
		}
		for by := ByWorks; by <= ByCentrality; by++ {
			if got, want := e.TopAuthors(by, 0), fresh.TopAuthors(by, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: TopAuthors(%v) differs from a rebuild", s, by)
			}
		}
	}
}
