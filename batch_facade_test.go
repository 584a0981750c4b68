package authorindex

import (
	"bytes"
	"errors"
	"fmt"
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
	// Zero the observability counters: they are monotonic and are not
	// index state. Callers compare WALBytes on its own.
	st.QueriesServed, st.WorksCloned, st.PostingsScanned = 0, 0, 0
	st.WALBytes, st.WALSyncs, st.BatchesCommitted, st.FsyncsSaved = 0, 0, 0, 0
	var buf bytes.Buffer
	if err := ix.Render(&buf, RenderOptions{Format: TSV}); err != nil {
		t.Fatal(err)
	}
	gfp := ix.engine().Graph().Fingerprint()
	return fmt.Sprintf("%+v|%s|%s", st, gfp, buf.String())
}

// rejections lists one invalid work per error Engine.AddBatch can
// return for a work the facade hands it (the facade always assigns an
// ID, so the engine's zero-ID check is unreachable from here). Each one
// fails validation, which runs before anything commits.
var rejections = []struct {
	name  string
	spoil func(*Work)
}{
	{"empty title", func(w *Work) { w.Title = "" }},
	{"control-character title", func(w *Work) { w.Title = "Tab\tTitle" }},
	{"invalid kind", func(w *Work) { w.Kind = Kind(200) }},
	{"no authors", func(w *Work) { w.Authors = nil }},
	{"invalid author", func(w *Work) { w.Authors = append(w.Authors, Author{Given: "No Family"}) }},
	{"invalid citation", func(w *Work) { w.Citation.Year = 1200 }},
	{"empty subject", func(w *Work) { w.Subjects = append(w.Subjects, "") }},
	{"control-character subject", func(w *Work) { w.Subjects = append(w.Subjects, "Line\nBreak") }},
}

// checkRejectionsAtomic sends every rejection through Add (fresh and
// overwriting) and AddBatch (fresh IDs, and explicit IDs with the bad
// work last), and asserts each left the index, the WAL and the next
// assigned ID unchanged — then that a reopen agrees nothing was
// written. shards is passed to Options.Shards, which every accepted
// value leaves inert.
func checkRejectionsAtomic(t *testing.T, shards int) {
	dir := t.TempDir()
	ix := openShards(t, dir, shards)
	if _, err := ix.AddBatch(batchOf(30, 1)); err != nil {
		t.Fatal(err)
	}
	before := facadeFingerprint(t, ix)
	beforeWAL := ix.Stats().WALBytes
	beforeNext := ix.store.Stats().NextID

	explicit := batchOf(8, 3)
	for i := range explicit {
		explicit[i].ID = WorkID(1000 + i)
	}
	for _, rc := range rejections {
		single := batchOf(1, 2)[0]
		rc.spoil(&single)
		overwrite := single
		overwrite.ID = 7
		fresh := batchOf(20, 2)
		rc.spoil(&fresh[13])
		badLast := append([]Work(nil), explicit...)
		rc.spoil(&badLast[len(badLast)-1])
		for _, write := range []struct {
			name string
			do   func() error
		}{
			{"Add", func() error { _, err := ix.Add(single); return err }},
			{"Add overwrite", func() error { _, err := ix.Add(overwrite); return err }},
			{"AddBatch", func() error { _, err := ix.AddBatch(fresh); return err }},
			{"AddBatch explicit IDs", func() error { _, err := ix.AddBatch(badLast); return err }},
		} {
			if err := write.do(); err == nil {
				t.Fatalf("%s with %s accepted", write.name, rc.name)
			}
			if after := facadeFingerprint(t, ix); after != before {
				t.Fatalf("%s with %s left storage/engine/metrics/graph changed", write.name, rc.name)
			}
			if got := ix.Stats().WALBytes; got != beforeWAL {
				t.Fatalf("%s with %s wrote %d WAL bytes", write.name, rc.name, got-beforeWAL)
			}
			if got := ix.store.Stats().NextID; got != beforeNext {
				t.Fatalf("%s with %s moved the next ID %d -> %d", write.name, rc.name, beforeNext, got)
			}
		}
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after failed writes: %v", err)
	}
	// IDs must continue exactly where the committed state left them.
	ids, err := ix.AddBatch(batchOf(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 31 || ids[1] != 32 {
		t.Errorf("post-failure ids = %v, want [31 32]", ids)
	}
	// And a reopen must agree the failed writes never existed.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix = openShards(t, dir, shards)
	defer ix.Close()
	if ix.Len() != 32 {
		t.Errorf("recovered Len = %d, want 32", ix.Len())
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAddBatchFailureIsAtomic(t *testing.T) { checkRejectionsAtomic(t, 1) }

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
