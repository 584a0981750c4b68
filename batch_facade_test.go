package authorindex

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func batchOf(n, salt int) []Work {
	out := make([]Work, n)
	for i := range out {
		out[i] = Work{
			Title:    fmt.Sprintf("Group Commit Study %d-%d", salt, i),
			Authors:  []Author{{Family: fmt.Sprintf("Batcher%d", i%9), Given: "A."}},
			Citation: Citation{Volume: 80 + salt, Page: i + 1, Year: 1985},
			Subjects: []string{"Write Pipelines"},
		}
	}
	return out
}

func TestAddBatchAssignsIDsAndVerifies(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	ids, err := ix.AddBatch(batchOf(50, 0))
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if len(ids) != 50 {
		t.Fatalf("got %d ids", len(ids))
	}
	for i, id := range ids {
		if id != WorkID(i+1) {
			t.Fatalf("ids[%d] = %d, want %d", i, id, i+1)
		}
	}
	if ix.Len() != 50 {
		t.Errorf("Len = %d", ix.Len())
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after batch: %v", err)
	}
	// Recovery must rebuild the same index from the batched WAL frames.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix = openT(t, dir)
	defer ix.Close()
	if ix.Len() != 50 {
		t.Errorf("recovered Len = %d", ix.Len())
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
	if got := ix.BySubject("Write Pipelines", 0); len(got) != 50 {
		t.Errorf("subject lookup found %d works, want 50", len(got))
	}
}

// The acceptance-criterion test: an AddBatch of N works performs
// exactly one WAL fsync, however large N is.
func TestAddBatchSingleFsync(t *testing.T) {
	ix, err := Open(t.TempDir(), nil) // durability on: fsync per commit
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, n := range []int{1, 16, 256} {
		before := ix.Stats()
		if _, err := ix.AddBatch(batchOf(n, n)); err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		if got := st.WALSyncs - before.WALSyncs; got != 1 {
			t.Errorf("AddBatch of %d works issued %d fsyncs, want exactly 1", n, got)
		}
		if got := st.BatchesCommitted - before.BatchesCommitted; got != 1 {
			t.Errorf("AddBatch of %d works counted %d commits, want 1", n, got)
		}
		if got := st.FsyncsSaved - before.FsyncsSaved; got != int64(n-1) {
			t.Errorf("AddBatch of %d works saved %d fsyncs, want %d", n, got, n-1)
		}
	}
	// The per-work path costs one fsync per work, for contrast.
	before := ix.Stats()
	for _, w := range batchOf(4, 99) {
		if _, err := ix.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Stats().WALSyncs - before.WALSyncs; got != 4 {
		t.Errorf("4 single Adds issued %d fsyncs, want 4", got)
	}
}

// facadeFingerprint reduces the index to everything a failed batch must
// not disturb: stats (ignoring read counters), the graph fingerprint,
// and a full citation-ordered render.
func facadeFingerprint(t *testing.T, ix *Index) string {
	t.Helper()
	st := ix.Stats()
	// Zero the observability counters: they are monotonic (a rolled-back
	// batch still counts its WAL traffic) and are not index state.
	st.QueriesServed, st.WorksCloned, st.PostingsScanned = 0, 0, 0
	st.WALBytes, st.WALSyncs, st.BatchesCommitted, st.FsyncsSaved = 0, 0, 0, 0
	var buf bytes.Buffer
	if err := ix.Render(&buf, RenderOptions{Format: TSV}); err != nil {
		t.Fatal(err)
	}
	gfp := ix.trackers().Graph().Fingerprint()
	return fmt.Sprintf("%+v|%s|%s", st, gfp, buf.String())
}

func TestAddBatchFailureIsAtomic(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	if _, err := ix.AddBatch(batchOf(30, 1)); err != nil {
		t.Fatal(err)
	}
	before := facadeFingerprint(t, ix)
	beforeWAL := ix.Stats().WALBytes

	bad := batchOf(20, 2)
	bad[13].Title = "" // invalid: rejected by validation before anything commits
	if _, err := ix.AddBatch(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if after := facadeFingerprint(t, ix); after != before {
		t.Fatal("failed AddBatch left storage/engine/metrics/graph changed")
	}
	if got := ix.Stats().WALBytes; got != beforeWAL {
		t.Errorf("failed AddBatch wrote %d WAL bytes", got-beforeWAL)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after failed batch: %v", err)
	}
	// IDs must continue exactly where the committed state left them.
	ids, err := ix.AddBatch(batchOf(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 31 || ids[1] != 32 {
		t.Errorf("post-failure ids = %v, want [31 32]", ids)
	}
	// And a reopen must agree the failed batch never existed.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix = openT(t, dir)
	defer ix.Close()
	if ix.Len() != 32 {
		t.Errorf("recovered Len = %d, want 32", ix.Len())
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: the store-accepted/engine-rejected window must
// roll the stored work back, for the single and the batched path alike.
func TestEngineFailureRollsBackStore(t *testing.T) {
	fail := errors.New("injected engine failure")
	engineAddFault = func(w *Work) error {
		if strings.Contains(w.Title, "poison") {
			return fail
		}
		return nil
	}
	defer func() { engineAddFault = nil }()

	dir := t.TempDir()
	ix := openT(t, dir)
	if _, err := ix.Add(sampleWork("Healthy Work", "90:100 (1985)", "Sound, Safe")); err != nil {
		t.Fatal(err)
	}
	before := facadeFingerprint(t, ix)

	if _, err := ix.Add(sampleWork("poison single", "90:101 (1985)", "Trouble, Tom")); !errors.Is(err, fail) {
		t.Fatalf("Add with engine failure: %v", err)
	}
	if after := facadeFingerprint(t, ix); after != before {
		t.Fatal("engine-failed Add left store and engine divergent")
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after rolled-back Add: %v", err)
	}

	batch := batchOf(6, 4)
	batch[4].Title = "poison batch member"
	if _, err := ix.AddBatch(batch); !errors.Is(err, fail) {
		t.Fatalf("AddBatch with engine failure: %v", err)
	}
	if after := facadeFingerprint(t, ix); after != before {
		t.Fatal("engine-failed AddBatch left store and engine divergent")
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after rolled-back AddBatch: %v", err)
	}

	// The overwrite case: a failing work whose explicit ID targets a
	// committed record must restore the original, not tombstone it.
	poisonOverwrite := sampleWork("poison overwrite", "90:100 (1985)", "Trouble, Tom")
	poisonOverwrite.ID = 1 // the healthy work's ID
	if _, err := ix.Add(poisonOverwrite); !errors.Is(err, fail) {
		t.Fatalf("overwriting Add with engine failure: %v", err)
	}
	if after := facadeFingerprint(t, ix); after != before {
		t.Fatal("engine-failed overwrite Add did not restore the original work")
	}
	overwriteBatch := batchOf(3, 7)
	overwriteBatch[1] = poisonOverwrite
	if _, err := ix.AddBatch(overwriteBatch); !errors.Is(err, fail) {
		t.Fatalf("overwriting AddBatch with engine failure: %v", err)
	}
	if after := facadeFingerprint(t, ix); after != before {
		t.Fatal("engine-failed overwrite AddBatch did not restore the original work")
	}
	if w, ok := ix.Get(1); !ok || w.Title != "Healthy Work" {
		t.Fatalf("original work not restored: %v, %v", w, ok)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after rolled-back overwrite: %v", err)
	}

	// Recovery must see only the healthy work: the rollback is durable.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix = openT(t, dir)
	defer ix.Close()
	if ix.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1", ix.Len())
	}
	if _, ok := ix.Author("Sound, Safe"); !ok {
		t.Error("healthy work lost in rollback")
	}
}

func TestDeleteBatch(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	ids, err := ix.AddBatch(batchOf(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.DeleteBatch(ids[:10]); err != nil {
		t.Fatalf("DeleteBatch: %v", err)
	}
	if ix.Len() != 10 {
		t.Errorf("Len = %d, want 10", ix.Len())
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after DeleteBatch: %v", err)
	}
	before := facadeFingerprint(t, ix)
	if err := ix.DeleteBatch([]WorkID{ids[10], 9999}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("DeleteBatch with missing id: %v", err)
	}
	if after := facadeFingerprint(t, ix); after != before {
		t.Fatal("failed DeleteBatch mutated the index")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix = openT(t, dir)
	defer ix.Close()
	if ix.Len() != 10 {
		t.Errorf("recovered Len = %d, want 10", ix.Len())
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestImportUsesChunkedGroupCommits(t *testing.T) {
	// Render a corpus to TSV, then re-import it with a small batch size:
	// the import must arrive in ceil(works/batch) group commits.
	src := openT(t, t.TempDir())
	for i := 0; i < 40; i++ {
		if _, err := src.Add(Work{
			Title:    fmt.Sprintf("Imported Work %d", i),
			Authors:  []Author{{Family: fmt.Sprintf("Importer%d", i%5), Given: "B."}},
			Citation: Citation{Volume: 70, Page: i + 1, Year: 1979},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var tsv bytes.Buffer
	if err := src.Render(&tsv, RenderOptions{Format: TSV}); err != nil {
		t.Fatal(err)
	}
	src.Close()

	dst, err := Open(t.TempDir(), &Options{NoSync: true, IngestBatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	res, err := dst.ImportTSV(bytes.NewReader(tsv.Bytes()), false)
	if err != nil {
		t.Fatalf("ImportTSV: %v", err)
	}
	if len(res.Works) != 40 {
		t.Fatalf("imported %d works", len(res.Works))
	}
	st := dst.Stats()
	if st.BatchesCommitted != 3 { // ceil(40/16)
		t.Errorf("import used %d group commits, want 3", st.BatchesCommitted)
	}
	if st.FsyncsSaved != 37 { // 40 works, 3 commits
		t.Errorf("import saved %d fsyncs, want 37", st.FsyncsSaved)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("Verify after chunked import: %v", err)
	}
}

func TestOpenRejectsNegativeIngestBatch(t *testing.T) {
	if _, err := Open("", &Options{IngestBatchSize: -1}); err == nil {
		t.Error("negative IngestBatchSize accepted")
	}
}
