package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// The compaction tests pin the store that keeps no works: after a
// compaction it holds no decoded work, compaction copies the old
// snapshot's live records byte for byte, and snapshots written by
// older code (version-1 records, the store that kept a works map) still
// open, compact and reopen to the same works.

// snapshotRecords maps each work ID in dir's snapshot to its record's
// bytes.
func snapshotRecords(t *testing.T, dir string) map[model.WorkID][]byte {
	t.Helper()
	recs := map[model.WorkID][]byte{}
	if _, _, err := scanSnapshot(dir, func(id model.WorkID, b []byte) error {
		recs[id] = append([]byte(nil), b...)
		return nil
	}); err != nil {
		t.Fatalf("scan snapshot: %v", err)
	}
	return recs
}

// allWorks returns every stored work, by ID.
func allWorks(t *testing.T, s *Store) map[model.WorkID]*model.Work {
	t.Helper()
	out := map[model.WorkID]*model.Work{}
	if err := s.ForEach(func(w *model.Work) error {
		if _, dup := out[w.ID]; dup {
			t.Fatalf("ForEach yielded work %d twice", w.ID)
		}
		out[w.ID] = w
		return nil
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	return out
}

// TestCompactHeapObjectsPerWork: a compacted store holds no decoded
// work, only its ID set. The store that kept a works map held 3 heap
// objects per work here.
func TestCompactHeapObjectsPerWork(t *testing.T) {
	const n, batch = 20000, 4096
	works := gen.Generate(gen.Config{Seed: 3, Works: n})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := openT(t, t.TempDir())
	defer s.Close()
	for i := 0; i < n; i += batch {
		if _, err := s.PutBatch(works[i:min(i+batch, n)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(works)
	perWork := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
	t.Logf("%d works: %.4f heap objects per work after Compact", n, perWork)
	if perWork >= 0.05 {
		t.Errorf("store holds %.3f heap objects per work after Compact, want < 0.05", perWork)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
}

// TestCompactCopiesRecordsVerbatim: every live record of the old
// snapshot reaches the new one byte for byte, replaced and deleted ones
// drop out, and reads agree before and after the compaction.
func TestCompactCopiesRecordsVerbatim(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.PutBatch(gen.Generate(gen.Config{Seed: 5, Works: 300})); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	old := snapshotRecords(t, dir)
	repl := work("Replaced", 1, 1, 2000, "Zed")
	repl.ID = 7
	if _, err := put(s, repl); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBatch([]model.WorkID{8, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := put(s, work("Fresh", 2, 2, 2001, "Yves")); err != nil {
		t.Fatal(err)
	}
	want := allWorks(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := allWorks(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed what ForEach reads")
	}
	recs := snapshotRecords(t, dir)
	if len(recs) != len(want) {
		t.Fatalf("new snapshot holds %d records, want %d", len(recs), len(want))
	}
	for id, rec := range old {
		switch {
		case want[id] == nil:
			if recs[id] != nil {
				t.Errorf("deleted work %d still in the snapshot", id)
			}
		case id == repl.ID:
			if bytes.Equal(recs[id], rec) {
				t.Errorf("replaced work %d kept its old record", id)
			}
		case !bytes.Equal(recs[id], rec):
			t.Errorf("work %d: record not copied byte for byte", id)
		}
	}
	s.Close()
	s = openT(t, dir)
	defer s.Close()
	if got := allWorks(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("reopen changed what ForEach reads")
	}
}

// TestCompactWorksMapSnapshot: testdata/works-map-store was written by
// the store that kept a works map. Six works (one under explicit ID 9)
// and a cross-reference went into a compacted snapshot; then work 2 was
// replaced, work 3 deleted and work 10 put, in the WAL. It must open,
// compact and reopen to the same works, copying the records of the
// untouched snapshot works byte for byte.
func TestCompactWorksMapSnapshot(t *testing.T) {
	dir := t.TempDir()
	copyTestdata(t, "works-map-store", dir)
	old := snapshotRecords(t, dir)

	ll := model.Author{Family: "Llewellyn", Given: "Karl N."}
	fr := model.Author{Family: "Frank", Given: "Jerome"}
	cite := func(vol, page, year int) model.Citation {
		return model.Citation{Volume: vol, Page: page, Year: year}
	}
	want := map[model.WorkID]*model.Work{
		1:  {ID: 1, Title: "Contracts and the Common Law", Authors: []model.Author{ll}, Citation: cite(40, 1, 1930), Subjects: []string{"Contracts"}},
		2:  {ID: 2, Title: "Realism in Jurisprudence, Revised", Kind: model.KindEssay, Authors: []model.Author{ll, fr}, Citation: cite(40, 50, 1931), Subjects: []string{"Jurisprudence"}},
		4:  {ID: 4, Title: "Law and the Modern Mind", Authors: []model.Author{fr}, Citation: cite(44, 10, 1935)},
		5:  {ID: 5, Title: "The Bramble Bush", Authors: []model.Author{ll}, Citation: cite(46, 7, 1937), Subjects: []string{"Legal Education", "Contracts"}},
		9:  {ID: 9, Title: "The Common Law Tradition", Authors: []model.Author{ll}, Citation: cite(60, 1, 1960)},
		10: {ID: 10, Title: "Fate and Freedom", Authors: []model.Author{fr}, Citation: cite(47, 1, 1945)},
	}
	check := func(s *Store, when string) {
		t.Helper()
		if got := allWorks(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: works = %v, want %v", when, got, want)
		}
		if s.Len() != len(want) || s.Stats().NextID != 11 {
			t.Fatalf("%s: Len %d, next ID %d", when, s.Len(), s.Stats().NextID)
		}
		if refs := s.CrossRefs(); !reflect.DeepEqual(refs, []CrossRef{{From: fr, To: ll}}) {
			t.Fatalf("%s: cross-refs = %+v", when, refs)
		}
	}
	s := openT(t, dir)
	check(s, "open")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, "compacted")
	recs := snapshotRecords(t, dir)
	for _, id := range []model.WorkID{1, 4, 5, 9} {
		if !bytes.Equal(recs[id], old[id]) {
			t.Errorf("work %d: record not copied byte for byte", id)
		}
	}
	s.Close()
	s = openT(t, dir)
	defer s.Close()
	check(s, "reopened")
}

// TestCompactCopiesVersion1Records: a snapshot of version-1 records (no
// subject section) decodes to the same works, and compaction copies
// those records unchanged instead of re-encoding them as version 2.
func TestCompactCopiesVersion1Records(t *testing.T) {
	dir := t.TempDir()
	var want []*model.Work
	body := binary.AppendUvarint(nil, 4) // nextID
	body = binary.AppendUvarint(body, 3) // work count
	v1 := map[model.WorkID][]byte{}
	for id := model.WorkID(1); id <= 3; id++ {
		w := work("Old Record", 30, int(id), 1950, "Elder")
		w.ID = id
		want = append(want, w)
		rec := model.AppendWork(nil, w)
		rec = rec[:len(rec)-1] // drop the empty subject section
		rec[0] = 1             // version 1
		v1[id] = rec
		body = append(body, rec...)
	}
	body = binary.AppendUvarint(body, 0) // cross-ref count
	file := append([]byte(snapMagic), body...)
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(body, castagnoli))
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), file, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir)
	sorted := func() []*model.Work {
		got := allWorks(t, s)
		out := make([]*model.Work, 0, len(got))
		for _, w := range got {
			out = append(out, w)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	if got := sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("version-1 snapshot reads %v, want %v", got, want)
	}
	if _, err := put(s, work("New Record", 31, 1, 1951, "Younger")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	recs := snapshotRecords(t, dir)
	for id, rec := range v1 {
		if !bytes.Equal(recs[id], rec) {
			t.Errorf("work %d: version-1 record = %x, want it copied unchanged (%x)", id, recs[id], rec)
		}
	}
	if recs[4] == nil || recs[4][0] != 2 {
		t.Errorf("new work not written as a version-2 record: %x", recs[4])
	}
	s.Close()
	s = openT(t, dir)
	defer s.Close()
	if got := sorted()[:3]; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened version-1 works = %v, want %v", got, want)
	}
}

// TestSnapshotStreamingScan: the streaming scan yields every record
// byte for byte as the file holds it, in order, including one several
// buffers long, plus the next-ID counter and cross-references; and
// every truncation, a flipped byte the record walk cannot see, and
// trailing garbage are ErrCorrupt.
func TestSnapshotStreamingScan(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	works := gen.Generate(gen.Config{Seed: 8, Works: 2000})
	big := work(string(bytes.Repeat([]byte("Long Title "), 3*snapWindow/10)), 1, 1, 1999, "Wide")
	big.ID = 5000
	if _, err := s.PutBatch(append(works[:1000:1000], big)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBatch(works[1000:]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCrossRef(CrossRef{From: model.Author{Family: "Wide"}, To: model.Author{Family: "Narrow"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	want := allWorks(t, s)
	s.Close()
	scan := func() ([][]byte, model.WorkID, []CrossRef, error) {
		var recs [][]byte
		next, xrefs, err := scanSnapshot(dir, func(id model.WorkID, b []byte) error {
			recs = append(recs, bytes.Clone(b))
			return nil
		})
		return recs, next, xrefs, err
	}
	recs, next, xrefs, err := scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2001 || len(xrefs) != 1 || next != 5001 {
		t.Fatalf("scan: %d records, %d cross-refs, next ID %d", len(recs), len(xrefs), next)
	}
	path := filepath.Join(dir, snapshotFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) < 4*snapWindow {
		t.Fatalf("snapshot is %d bytes: want several buffers", len(good))
	}
	body := good[len(snapMagic):]
	for range 2 { // next ID, record count
		_, n := binary.Uvarint(body)
		body = body[n:]
	}
	if joined := bytes.Join(recs, nil); !bytes.Equal(joined, body[:len(joined)]) {
		t.Fatal("streamed records differ from the file's bytes")
	}
	for _, rec := range recs {
		w, _, err := model.DecodeWork(rec)
		if err != nil || !reflect.DeepEqual(w, want[w.ID]) {
			t.Fatalf("record of work %d decodes to %v, %v", w.ID, w, err)
		}
	}
	corrupt := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := scan(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: scan returned %v, want ErrCorrupt", what, err)
		}
	}
	var cuts []int
	for n := 0; n < 64; n++ {
		cuts = append(cuts, n, len(good)-1-n)
	}
	for w := snapWindow; w < len(good); w += snapWindow {
		cuts = append(cuts, w-1, w, w+1)
	}
	for _, n := range cuts {
		corrupt(fmt.Sprintf("truncated to %d bytes", n), good[:n])
	}
	at := bytes.Index(good, []byte("Long Title Long"))
	flipped := bytes.Clone(good)
	flipped[at+2*snapWindow] ^= 0x20
	corrupt("a flipped title byte", flipped)
	corrupt("trailing bytes", append(bytes.Clone(good), 0))
}
