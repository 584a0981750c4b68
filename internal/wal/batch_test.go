package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	var want [][]byte
	var batch [][]byte
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf("batch-record-%03d", i))
		want = append(want, p)
		batch = append(batch, p)
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	// Singles and batches interleave freely.
	if err := l.Append([]byte("single")); err != nil {
		t.Fatal(err)
	}
	want = append(want, []byte("single"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// The group-commit contract: N records, one append, one fsync.
func TestAppendBatchSingleFsync(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{}) // fsync on
	defer l.Close()
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("r%04d", i))
	}
	before := l.Stats()
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if got := st.Appends - before.Appends; got != 1 {
		t.Errorf("batch cost %d appends, want 1", got)
	}
	if got := st.Records - before.Records; got != 64 {
		t.Errorf("batch recorded %d records, want 64", got)
	}
	if got := st.Syncs - before.Syncs; got != 1 {
		t.Errorf("batch issued %d fsyncs, want exactly 1", got)
	}
}

func TestAppendBatchValidation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	defer l.Close()
	if err := l.AppendBatch(nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
	if err := l.AppendBatch([][]byte{[]byte("ok"), nil}); err == nil {
		t.Error("batch with empty payload accepted")
	}
	big := make([]byte, MaxRecord+1)
	if err := l.AppendBatch([][]byte{[]byte("ok"), big}); err == nil {
		t.Error("batch with oversize payload accepted")
	}
	// A rejected batch must write nothing, not a prefix.
	if got := replayAll(t, dir); len(got) != 0 {
		t.Errorf("rejected batches leaked %d records into the log", len(got))
	}
	if st := l.Stats(); st.Records != 0 {
		t.Errorf("rejected batches counted %d records", st.Records)
	}
}

func TestAppendBatchClosed(t *testing.T) {
	l := openT(t, t.TempDir(), Options{NoSync: true})
	l.Close()
	if err := l.AppendBatch([][]byte{[]byte("x")}); err != ErrClosed {
		t.Errorf("AppendBatch after close: %v, want ErrClosed", err)
	}
}

func TestAppendBatchRotates(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 128, NoSync: true})
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 6; i++ {
		if err := l.AppendBatch([][]byte{payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Errorf("expected batch appends to rotate segments, got %d", len(segs))
	}
	if got := replayAll(t, dir); len(got) != 6 {
		t.Errorf("replayed %d records, want 6", len(got))
	}
}

// TestCrashTornTailEveryOffset is the exhaustive torn-tail sweep: a log
// whose final record is cut at EVERY possible byte offset must replay
// to exactly the committed prefix — never an error, never a phantom
// record, never a corrupted payload.
func TestCrashTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	l := openT(t, master, Options{NoSync: true})
	var want [][]byte
	for i := 0; i < 6; i++ {
		p := []byte(fmt.Sprintf("committed-%d-%s", i, bytes.Repeat([]byte{byte('a' + i)}, 10+i)))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	segData, err := os.ReadFile(filepath.Join(master, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(segData) - headerSize - len(want[len(want)-1])
	for cut := lastStart; cut <= len(segData); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, segs[0].name)
		if err := os.WriteFile(path, segData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		if _, err := Replay(dir, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: replay error %v", cut, err)
		}
		wantN := len(want) - 1
		if cut == len(segData) {
			wantN = len(want)
		}
		if len(got) != wantN {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(got), wantN)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, got[i], want[i])
			}
		}
		// Open must truncate the tear and accept new appends cleanly.
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if err := l2.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		var after [][]byte
		if _, err := Replay(dir, func(p []byte) error {
			after = append(after, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: replay after recovery: %v", cut, err)
		}
		if len(after) != wantN+1 || string(after[wantN]) != "post-crash" {
			t.Fatalf("cut=%d: post-recovery log holds %d records", cut, len(after))
		}
	}
}
