package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

func batchWorks(n int) []*model.Work {
	out := make([]*model.Work, n)
	for i := range out {
		out[i] = work(fmt.Sprintf("Batch Work %03d", i), 90, i+1, 1988, fmt.Sprintf("Fam%02d", i%7))
	}
	return out
}

func TestPutBatchAssignsSequentialIDs(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := put(s, work("Seed", 1, 1, 1980)); err != nil {
		t.Fatal(err)
	}
	ids, err := s.PutBatch(batchWorks(5))
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, id := range ids {
		if want := model.WorkID(i + 2); id != want {
			t.Errorf("ids[%d] = %d, want %d", i, id, want)
		}
		if _, ok := get(s, id); !ok {
			t.Errorf("work %d missing after batch", id)
		}
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
	// Explicit IDs overwrite, mixed with zero IDs, like sequential one-work puts.
	mixed := batchWorks(3)
	mixed[0].ID = 2  // overwrite
	mixed[1].ID = 50 // explicit insert, raises nextID
	ids, err = s.PutBatch(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 2 || ids[1] != 50 || ids[2] != 51 {
		t.Errorf("mixed batch ids = %v, want [2 50 51]", ids)
	}
	// PutBatch owns the works: each carries its assigned ID.
	for i, w := range mixed {
		if w.ID != ids[i] {
			t.Errorf("mixed[%d].ID = %d, want assigned %d", i, w.ID, ids[i])
		}
	}
	if got, _ := get(s, 2); got.Title != mixed[0].Title {
		t.Errorf("overwrite lost: %q", got.Title)
	}
}

func TestPutBatchGroupCommitCounters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{}) // fsync on every commit
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Stats()
	if _, err := s.PutBatch(batchWorks(32)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.BatchesCommitted - before.BatchesCommitted; got != 1 {
		t.Errorf("BatchesCommitted delta = %d, want 1", got)
	}
	if got := st.FsyncsSaved - before.FsyncsSaved; got != 31 {
		t.Errorf("FsyncsSaved delta = %d, want 31", got)
	}
	if got := st.WALSyncs - before.WALSyncs; got != 1 {
		t.Errorf("a 32-work batch issued %d fsyncs, want exactly 1", got)
	}
}

func TestPutBatchFailureLeavesStoreUnchanged(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	base := batchWorks(3)
	if _, err := s.PutBatch(base); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	bad := batchWorks(4)
	bad[2].Title = "" // fails validation
	if _, err := s.PutBatch(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	after := s.Stats()
	if after.Works != before.Works || after.NextID != before.NextID {
		t.Errorf("failed batch mutated store: %+v -> %+v", before, after)
	}
	if after.WALBytes != before.WALBytes {
		t.Errorf("failed batch wrote %d WAL bytes", after.WALBytes-before.WALBytes)
	}
	if after.BatchesCommitted != before.BatchesCommitted {
		t.Error("failed batch counted as committed")
	}
	// The next assigned ID must be unaffected by the failed batch.
	id, err := put(s, work("After Failure", 1, 1, 1990))
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Errorf("post-failure Put got ID %d, want 4", id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// And recovery must agree.
	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 4 {
		t.Errorf("recovered %d works, want 4", s2.Len())
	}
}

func TestPutBatchReplaysAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := put(s, work("Single A", 1, 1, 1980)); err != nil {
		t.Fatal(err)
	}
	ids, err := s.PutBatch(batchWorks(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := del(s, ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBatch([]model.WorkID{ids[0], ids[7]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 8 {
		t.Fatalf("recovered %d works, want 8", s2.Len())
	}
	for _, id := range []model.WorkID{ids[0], ids[3], ids[7]} {
		if _, ok := get(s2, id); ok {
			t.Errorf("deleted work %d resurrected by replay", id)
		}
	}
	for _, id := range []model.WorkID{1, ids[1], ids[9]} {
		if _, ok := get(s2, id); !ok {
			t.Errorf("work %d lost in replay", id)
		}
	}
}

// A batch is one WAL frame — the crash-atomicity unit — so a batch
// that would not fit one frame is rejected whole, never split into
// frames a torn tail could partially surface.
func TestPutBatchOversizeRejectedAtomically(t *testing.T) {
	old := batchFrameBytes
	batchFrameBytes = 200
	defer func() { batchFrameBytes = old }()

	dir := t.TempDir()
	s, err := Open(dir, Options{WAL: wal.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PutBatch(batchWorks(1)); err != nil {
		t.Fatalf("small batch within the cap rejected: %v", err)
	}
	before := s.Stats()
	if _, err := s.PutBatch(batchWorks(20)); err == nil {
		t.Fatal("oversize batch accepted")
	}
	after := s.Stats()
	if after.Works != before.Works || after.NextID != before.NextID || after.WALBytes != before.WALBytes {
		t.Errorf("rejected oversize batch mutated the store: %+v -> %+v", before, after)
	}
	// Oversize DeleteBatch is rejected the same way.
	manyIDs := make([]model.WorkID, 300)
	for i := range manyIDs {
		manyIDs[i] = 1 // exists; payload length is what matters
	}
	if err := s.DeleteBatch(manyIDs); err == nil {
		t.Fatal("oversize delete batch accepted")
	}
	if s.Len() != before.Works {
		t.Error("rejected oversize delete mutated the store")
	}
}

func TestDeleteBatchMissingIDUnchanged(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	ids, err := s.PutBatch(batchWorks(4))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	err = s.DeleteBatch([]model.WorkID{ids[0], 999})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("DeleteBatch with missing id: %v", err)
	}
	after := s.Stats()
	if after.Works != before.Works || after.WALBytes != before.WALBytes {
		t.Error("failed DeleteBatch mutated the store")
	}
	if _, ok := get(s, ids[0]); !ok {
		t.Error("failed DeleteBatch removed a work")
	}
}

func TestBatchOpsAfterClose(t *testing.T) {
	s := openT(t, t.TempDir())
	s.Close()
	if _, err := s.PutBatch(batchWorks(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("PutBatch after close: %v", err)
	}
	if err := s.DeleteBatch([]model.WorkID{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("DeleteBatch after close: %v", err)
	}
}

func TestPutBatchTriggersCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{WAL: wal.Options{NoSync: true}, CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBatch(batchWorks(10)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SnapshotBytes == 0 {
		t.Error("batch of 10 with CompactEvery=8 did not compact")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{WAL: wal.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Errorf("recovered %d works via snapshot, want 10", s2.Len())
	}
}

// copyStoreDir clones a store directory (snapshot + WAL segments) so a
// crash test can mutilate the copy while keeping the master intact.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// lastSegment returns the path of the newest WAL segment under dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	walDir := filepath.Join(dir, walSubdir)
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if !e.IsDir() && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no WAL segments")
	}
	return filepath.Join(walDir, last)
}

// TestCrashRecoveryBatchTornTailEveryOffset is the batched-write crash
// sweep: a store holding three committed singles plus one batch of ten
// is "crashed" by truncating the final WAL record — the batch frame —
// at every byte offset. Recovery must always see either the full batch
// (only when nothing was torn) or none of it; a partial batch must
// never become visible.
func TestCrashRecoveryBatchTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	s, err := Open(master, Options{WAL: wal.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := put(s, work(fmt.Sprintf("Committed %d", i), 10, i+1, 1975)); err != nil {
			t.Fatal(err)
		}
	}
	preBatchLen, err := os.Stat(lastSegment(t, master))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBatch(batchWorks(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := lastSegment(t, master)
	segData, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	batchStart := preBatchLen.Size()
	if int64(len(segData)) <= batchStart {
		t.Fatalf("batch frame not in final segment: %d <= %d", len(segData), batchStart)
	}
	for cut := batchStart; cut <= int64(len(segData)); cut++ {
		dir := copyStoreDir(t, master)
		if err := os.Truncate(lastSegment(t, dir), cut); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{WAL: wal.Options{NoSync: true}})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		got := s2.Len()
		want := 3
		if cut == int64(len(segData)) {
			want = 13
		}
		if got != want {
			t.Fatalf("cut=%d: recovered %d works, want %d (partial batch visible?)", cut, got, want)
		}
		for i := model.WorkID(1); i <= 3; i++ {
			if _, ok := get(s2, i); !ok {
				t.Fatalf("cut=%d: committed work %d lost", cut, i)
			}
		}
		// The recovered store must accept new writes.
		if _, err := put(s2, work("Post Crash", 11, 1, 1990)); err != nil {
			t.Fatalf("cut=%d: post-recovery Put: %v", cut, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryDeleteBatchTornTail: a torn DeleteBatch frame must
// leave every deleted work alive — deletes are as atomic as puts.
func TestCrashRecoveryDeleteBatchTornTail(t *testing.T) {
	master := t.TempDir()
	s, err := Open(master, Options{WAL: wal.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.PutBatch(batchWorks(6))
	if err != nil {
		t.Fatal(err)
	}
	preDelete, err := os.Stat(lastSegment(t, master))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBatch(ids[:4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := lastSegment(t, master)
	segData, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := preDelete.Size(); cut <= int64(len(segData)); cut++ {
		dir := copyStoreDir(t, master)
		if err := os.Truncate(lastSegment(t, dir), cut); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{WAL: wal.Options{NoSync: true}})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		want := 6
		if cut == int64(len(segData)) {
			want = 2
		}
		if got := s2.Len(); got != want {
			t.Fatalf("cut=%d: recovered %d works, want %d", cut, got, want)
		}
		s2.Close()
	}
}
