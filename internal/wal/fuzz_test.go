package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay hammers scanSegment — the parser every recovery path
// funnels through — with arbitrary segment bytes. Whatever the input,
// it must never panic, must report a valid-prefix length inside the
// file, and that prefix must itself rescan cleanly to the same record
// count (the fixpoint property Open relies on when it truncates a torn
// tail).
func FuzzReplay(f *testing.F) {
	// Seed corpus: real segments in several shapes, plus broken variants.
	seedDir := f.TempDir()
	l, err := Open(seedDir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("seed-record-%02d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(seedDir)
	if err != nil || len(segs) == 0 {
		f.Fatalf("seed segments: %v err=%v", segs, err)
	}
	real, err := os.ReadFile(filepath.Join(seedDir, segs[0].name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)                    // intact segment
	f.Add(real[:len(real)-3])      // torn tail
	f.Add(real[:headerSize])       // bare header
	f.Add([]byte{})                // empty file
	f.Add([]byte("not a segment")) // garbage
	flipped := append([]byte(nil), real...)
	flipped[headerSize+2] ^= 0xff // corrupt payload byte
	f.Add(flipped)
	badLen := append([]byte(nil), real...)
	badLen[1] = 0xff // absurd frame length
	f.Add(badLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		valid, n, err := scanSegment(path, func(p []byte) error {
			if len(p) == 0 {
				return errors.New("delivered empty payload")
			}
			return nil
		})
		if err != nil && !errors.Is(err, errTorn) {
			t.Fatalf("scanSegment returned non-torn error: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if n < 0 {
			t.Fatalf("negative record count %d", n)
		}
		// Fixpoint: the reported prefix must rescan cleanly, delivering
		// exactly the same records.
		if err := os.WriteFile(path, data[:valid], 0o644); err != nil {
			t.Fatal(err)
		}
		valid2, n2, err2 := scanSegment(path, nil)
		if err2 != nil {
			t.Fatalf("valid prefix did not rescan cleanly: %v", err2)
		}
		if valid2 != valid || n2 != n {
			t.Fatalf("rescan of valid prefix: (%d, %d) != (%d, %d)", valid2, n2, valid, n)
		}
	})
}
