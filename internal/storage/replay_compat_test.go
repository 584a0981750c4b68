package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
)

// testdata/single-record-wal holds a store written, with no compaction,
// by the code before every write became a batch: five single-work puts
// (two of them with explicit IDs, one overwriting ID 2), one
// single-work delete of ID 3 and one cross-reference, each in its own
// opPut / opDelete / opXRefAdd WAL record. Logs like it exist on disk,
// so replay must keep decoding those records.
func TestReplayParentSingleRecordWAL(t *testing.T) {
	dir := t.TempDir()
	copyTestdata(t, "single-record-wal", dir)
	s := openT(t, dir)
	defer s.Close()

	llewellyn := model.Author{Family: "Llewellyn", Given: "Karl N."}
	frank := model.Author{Family: "Frank", Given: "Jerome"}
	want := map[model.WorkID]*model.Work{
		1: {ID: 1, Title: "Contracts and the Common Law", Authors: []model.Author{llewellyn},
			Citation: model.Citation{Volume: 40, Page: 1, Year: 1930}, Subjects: []string{"Contracts"}},
		2: {ID: 2, Title: "Realism in Jurisprudence, Revised", Kind: model.KindEssay, Authors: []model.Author{llewellyn, frank},
			Citation: model.Citation{Volume: 40, Page: 50, Year: 1931}, Subjects: []string{"Jurisprudence"}},
		10: {ID: 10, Title: "Courts on Trial", Authors: []model.Author{frank},
			Citation: model.Citation{Volume: 45, Page: 3, Year: 1936}, Subjects: []string{"Courts"}},
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("replayed %d works, want %d", got, len(want))
	}
	for id, w := range want {
		got, ok := get(s, id)
		if !ok {
			t.Fatalf("work %d missing after replay", id)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("work %d = %+v, want %+v", id, got, w)
		}
	}
	if _, ok := get(s, 3); ok {
		t.Error("deleted work 3 replayed")
	}
	if refs := s.CrossRefs(); !reflect.DeepEqual(refs, []CrossRef{{From: frank, To: llewellyn}}) {
		t.Errorf("cross-refs = %+v", refs)
	}
	if got := s.Stats().NextID; got != 11 {
		t.Errorf("next ID = %d, want 11", got)
	}
	// New writes append batch records after the old single ones, and
	// both replay together.
	id, err := put(s, work("After Upgrade", 46, 1, 1937))
	if err != nil {
		t.Fatal(err)
	}
	if id != 11 {
		t.Errorf("first ID after replay = %d, want 11", id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if got := s2.Len(); got != len(want)+1 {
		t.Errorf("reopened store holds %d works, want %d", got, len(want)+1)
	}
}

// copyTestdata copies the store under testdata/name into dir.
func copyTestdata(t *testing.T, name, dir string) {
	t.Helper()
	src := filepath.Join("testdata", name)
	if err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, path[len(src):])
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
}
