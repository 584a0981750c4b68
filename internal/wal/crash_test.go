package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

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
