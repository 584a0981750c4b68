package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

func work(title string, vol, page, year int, authors ...string) *model.Work {
	w := &model.Work{
		Title:    title,
		Citation: model.Citation{Volume: vol, Page: page, Year: year},
	}
	for _, a := range authors {
		w.Authors = append(w.Authors, model.Author{Family: a})
	}
	if len(w.Authors) == 0 {
		w.Authors = []model.Author{{Family: "Anon"}}
	}
	return w
}

// put stores one work the way every caller writes: as a one-work
// batch.
func put(s *Store, w *model.Work) (model.WorkID, error) {
	ids, err := s.PutBatch([]*model.Work{w})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// del removes one work as a one-ID batch.
func del(s *Store, id model.WorkID) error {
	return s.DeleteBatch([]model.WorkID{id})
}

// get returns a private copy of the work stored under id, found the
// way every reader finds one: through ForEach.
func get(s *Store, id model.WorkID) (*model.Work, bool) {
	var found *model.Work
	if err := s.ForEach(func(w *model.Work) error {
		if w.ID == id {
			found = w.Clone()
		}
		return nil
	}); err != nil {
		panic(fmt.Sprintf("get(%d): %v", id, err))
	}
	return found, found != nil
}

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{WAL: wal.Options{NoSync: true}})
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

func TestInMemoryCRUD(t *testing.T) {
	s := openT(t, "")
	defer s.Close()
	id, err := put(s, work("First", 1, 1, 2000, "Alpha"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if id != 1 {
		t.Errorf("first ID = %d, want 1", id)
	}
	got, ok := get(s, id)
	if !ok || got.Title != "First" {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	// Returned work is a copy.
	got.Title = "mutated"
	if again, _ := get(s, id); again.Title != "First" {
		t.Error("Get returned a shared pointer")
	}
	if err := del(s, id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := get(s, id); ok {
		t.Error("deleted work still present")
	}
	if err := del(s, id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestPutValidates(t *testing.T) {
	s := openT(t, "")
	defer s.Close()
	if _, err := put(s, &model.Work{Title: "no authors", Citation: model.Citation{Volume: 1, Page: 1, Year: 2000}}); err == nil {
		t.Error("invalid work accepted")
	}
}

func TestIDAssignment(t *testing.T) {
	s := openT(t, "")
	defer s.Close()
	a, _ := put(s, work("A", 1, 1, 2000))
	w := work("B", 1, 2, 2000)
	w.ID = 50
	b, _ := put(s, w)
	c, _ := put(s, work("C", 1, 3, 2000))
	if a != 1 || b != 50 || c != 51 {
		t.Errorf("IDs = %d,%d,%d want 1,50,51", a, b, c)
	}
	// Overwrite via explicit ID.
	w2 := work("B-revised", 1, 2, 2001)
	w2.ID = 50
	if _, err := put(s, w2); err != nil {
		t.Fatal(err)
	}
	if got, _ := get(s, 50); got.Title != "B-revised" {
		t.Error("overwrite did not take")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	var ids []model.WorkID
	for i := 0; i < 20; i++ {
		id, err := put(s, work(fmt.Sprintf("W%02d", i), 90, i+1, 1990, "Fam"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	del(s, ids[3])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 19 {
		t.Fatalf("recovered %d works, want 19", s2.Len())
	}
	if _, ok := get(s2, ids[3]); ok {
		t.Error("deleted work resurrected")
	}
	if w, ok := get(s2, ids[7]); !ok || w.Title != "W07" {
		t.Errorf("Get(%d) = %v,%v", ids[7], w, ok)
	}
	// Fresh IDs must not collide with recovered ones.
	nid, _ := put(s2, work("new", 90, 99, 1990))
	if nid != 21 {
		t.Errorf("post-recovery ID = %d, want 21", nid)
	}
}

func TestCompactAndRecoverFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 50; i++ {
		put(s, work(fmt.Sprintf("W%02d", i), 90, i+1, 1990))
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.SnapshotBytes == 0 {
		t.Error("no snapshot written")
	}
	if st.WALBytes != 0 {
		t.Errorf("WAL not reset: %d bytes", st.WALBytes)
	}
	// More writes after the snapshot land in the fresh WAL.
	put(s, work("post-snap", 90, 99, 1990))
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 51 {
		t.Fatalf("recovered %d works, want 51", s2.Len())
	}
}

func TestAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{WAL: wal.Options{NoSync: true}, CompactEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		put(s, work(fmt.Sprintf("W%02d", i), 90, i+1, 1990))
	}
	st := s.Stats()
	if st.SnapshotBytes == 0 {
		t.Error("auto-compact never fired")
	}
	s.Close()
	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 25 {
		t.Errorf("recovered %d, want 25", s2.Len())
	}
}

func TestCrashSimulationTornWAL(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 10; i++ {
		put(s, work(fmt.Sprintf("W%02d", i), 90, i+1, 1990))
	}
	s.Close()
	// Tear bytes off the WAL tail: the last put may vanish, nothing else.
	walDir := filepath.Join(dir, walSubdir)
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	last := entries[len(entries)-1]
	p := filepath.Join(walDir, last.Name())
	fi, _ := os.Stat(p)
	if err := os.Truncate(p, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if got := s2.Len(); got != 9 {
		t.Errorf("after torn WAL: %d works, want 9", got)
	}
	for i := 0; i < 9; i++ {
		if _, ok := get(s2, model.WorkID(i+1)); !ok {
			t.Errorf("work %d lost", i+1)
		}
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 5; i++ {
		put(s, work(fmt.Sprintf("W%d", i), 90, i+1, 1990))
	}
	s.Compact()
	s.Close()
	path := filepath.Join(dir, snapshotFile)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir, Options{WAL: wal.Options{NoSync: true}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt snapshot: Open returned %v, want ErrCorrupt", err)
	}
}

func TestForEach(t *testing.T) {
	s := openT(t, "")
	defer s.Close()
	for i := 0; i < 10; i++ {
		put(s, work(fmt.Sprintf("W%d", i), 90, i+1, 1990))
	}
	seen := map[string]bool{}
	err := s.ForEach(func(w *model.Work) error {
		seen[w.Title] = true
		return nil
	})
	if err != nil || len(seen) != 10 {
		t.Errorf("ForEach: err=%v seen=%d", err, len(seen))
	}
	boom := errors.New("boom")
	n := 0
	err = s.ForEach(func(w *model.Work) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Errorf("ForEach error propagation: err=%v n=%d", err, n)
	}
}

func TestClosedOperations(t *testing.T) {
	s := openT(t, t.TempDir())
	s.Close()
	if _, err := put(s, work("x", 1, 1, 2000)); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if err := del(s, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after close: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch r.Intn(3) {
				case 0:
					put(s, work(fmt.Sprintf("g%d-%d", g, i), 90, 1+r.Intn(1000), 1990))
				case 1:
					get(s, model.WorkID(1+r.Intn(100)))
				case 2:
					s.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}

// Model check: random puts, explicit-ID replaces and deletes mirrored
// against a map, with periodic compaction and reopen. Replaces and
// deletes also target works that live in the snapshot, so compaction
// must drop their old records. Every round, ForEach must read exactly
// the model both before and after the reopen.
func TestRecoveryModelCheck(t *testing.T) {
	dir := t.TempDir()
	mdl := map[model.WorkID]string{}
	snap := map[model.WorkID]bool{} // IDs in the last compaction's snapshot
	r := rand.New(rand.NewSource(99))
	// pick returns a random ID of set that the model still holds.
	pick := func(set map[model.WorkID]bool) (model.WorkID, bool) {
		var ids []model.WorkID
		for id := range set {
			if _, ok := mdl[id]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids[r.Intn(len(ids))], true
	}
	check := func(s *Store, when string) {
		t.Helper()
		got := map[model.WorkID]string{}
		if err := s.ForEach(func(w *model.Work) error {
			got[w.ID] = w.Title
			return nil
		}); err != nil {
			t.Fatalf("%s: ForEach: %v", when, err)
		}
		if !reflect.DeepEqual(got, mdl) || s.Len() != len(mdl) {
			t.Fatalf("%s: store reads %d works (Len %d), model has %d", when, len(got), s.Len(), len(mdl))
		}
	}
	all := func() map[model.WorkID]bool {
		set := map[model.WorkID]bool{}
		for id := range mdl {
			set[id] = true
		}
		return set
	}
	s := openT(t, dir)
	for round := 0; round < 5; round++ {
		for op := 0; op < 100; op++ {
			switch r.Intn(6) {
			case 0, 1: // put
				title := fmt.Sprintf("t-%d-%d", round, op)
				id, err := put(s, work(title, 90, 1+r.Intn(1000), 1990))
				if err != nil {
					t.Fatal(err)
				}
				mdl[id] = title
			case 2: // delete a random known id
				if id, ok := pick(all()); ok {
					if err := del(s, id); err != nil {
						t.Fatal(err)
					}
					delete(mdl, id)
				}
			case 3: // compact occasionally
				if r.Intn(8) == 0 {
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
					snap = all()
				}
			case 4: // replace a snapshot work under its explicit ID
				if id, ok := pick(snap); ok {
					w := work(fmt.Sprintf("r-%d-%d", round, op), 91, 1+r.Intn(1000), 1991)
					w.ID = id
					if _, err := put(s, w); err != nil {
						t.Fatal(err)
					}
					mdl[id] = w.Title
				}
			case 5: // delete a snapshot work
				if id, ok := pick(snap); ok {
					if err := del(s, id); err != nil {
						t.Fatal(err)
					}
					delete(mdl, id)
				}
			}
		}
		check(s, fmt.Sprintf("round %d, live", round))
		s.Close()
		s = openT(t, dir)
		check(s, fmt.Sprintf("round %d, reopened", round))
	}
	s.Close()
}

func TestUnknownWALOpIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(s, work("x", 1, 1, 2000))
	s.Close()
	// Append a record with an op tag the store does not know.
	l, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{99, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Open(dir, Options{WAL: wal.Options{NoSync: true}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown op: Open returned %v, want ErrCorrupt", err)
	}
}

func TestCrossRefDurability(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	ref := CrossRef{
		From: model.Author{Family: "Mountney", Given: "Marion"},
		To:   model.Author{Family: "Crain-Mountney", Given: "Marion"},
	}
	other := CrossRef{
		From: model.Author{Family: "A"},
		To:   model.Author{Family: "B"},
	}
	if err := s.AddCrossRef(ref); err != nil {
		t.Fatalf("AddCrossRef: %v", err)
	}
	if err := s.AddCrossRef(ref); err != nil {
		t.Fatalf("duplicate AddCrossRef: %v", err)
	}
	if err := s.AddCrossRef(other); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCrossRef(other); err != nil {
		t.Fatalf("DeleteCrossRef: %v", err)
	}
	if err := s.DeleteCrossRef(other); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	// Survive WAL replay.
	s.Close()
	s = openT(t, dir)
	if got := s.CrossRefs(); len(got) != 1 || got[0] != ref {
		t.Fatalf("after replay: %+v", got)
	}
	// Survive snapshot + replay.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = openT(t, dir)
	defer s.Close()
	if got := s.CrossRefs(); len(got) != 1 || got[0] != ref {
		t.Fatalf("after snapshot: %+v", got)
	}
	// Validation.
	if err := s.AddCrossRef(CrossRef{}); err == nil {
		t.Error("empty cross-ref accepted")
	}
}

func TestStats(t *testing.T) {
	s := openT(t, "")
	st := s.Stats()
	if !st.InMemory || st.Works != 0 {
		t.Errorf("in-memory stats = %+v", st)
	}
	s.Close()

	dir := t.TempDir()
	s2 := openT(t, dir)
	defer s2.Close()
	put(s2, work("x", 1, 1, 2000))
	st = s2.Stats()
	if st.InMemory || st.WALBytes == 0 || st.Works != 1 || st.NextID != 2 {
		t.Errorf("durable stats = %+v", st)
	}
}
