package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func replayAll(t *testing.T, dir string) [][]byte {
	t.Helper()
	var got [][]byte
	n, err := Replay(dir, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Replay count %d != delivered %d", n, len(got))
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
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

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Error("empty payload accepted")
	}
	// A rejected append writes and counts nothing.
	if got := replayAll(t, dir); len(got) != 0 {
		t.Errorf("rejected append leaked %d records into the log", len(got))
	}
	if st := l.Stats(); st.Appends != 0 {
		t.Errorf("rejected append counted: %+v", st)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 256, NoSync: true})
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10; i++ {
		if err := l.Append(payload); err != nil {
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
	if len(segs) < 3 {
		t.Errorf("expected rotation to produce >=3 segments, got %d", len(segs))
	}
	if got := replayAll(t, dir); len(got) != 10 {
		t.Errorf("replayed %d records across segments, want 10", len(got))
	}
}

func TestReopenAppendsToExistingSegment(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openT(t, dir, Options{NoSync: true})
	if err := l.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Errorf("reopen lost records: %q", got)
	}
	// A single small log should still be one segment.
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Errorf("expected 1 segment, got %d", len(segs))
	}
}

func TestTornTailIsRecovered(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[len(segs)-1].name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 3 bytes, simulating a crash mid-write.
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 4 {
		t.Fatalf("after torn tail replayed %d records, want 4", len(got))
	}
	// Re-open truncates the tear; appends must produce a clean log.
	l = openT(t, dir, Options{NoSync: true})
	if err := l.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got = replayAll(t, dir)
	if len(got) != 5 || string(got[4]) != "after-crash" {
		t.Fatalf("post-recovery log wrong: %q", got)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	for i := 0; i < 3; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the FIRST record: CRC must catch it and,
	// because later intact records follow, replay stops at the flip.
	data[headerSize+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(dir, func([]byte) error { return nil })
	if err == nil {
		// Tolerated as torn tail only if this was the last segment, but
		// records after the flip are then silently lost.
		if n != 0 {
			t.Fatalf("corruption skipped %d records without error", n)
		}
	}
}

func TestMidLogCorruptionIsError(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 64, NoSync: true})
	for i := 0; i < 6; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segs))
	}
	// Corrupt the FIRST segment (not the last): must be ErrCorrupt.
	path := filepath.Join(dir, segs[0].name)
	data, _ := os.ReadFile(path)
	data[headerSize+5] ^= 0xff
	os.WriteFile(path, data, 0o644)
	_, err := Replay(dir, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-log corruption returned %v, want ErrCorrupt", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	for i := 0; i < 3; i++ {
		l.Append([]byte{byte(i + 1)})
	}
	l.Close()
	boom := errors.New("boom")
	n, err := Replay(dir, func(p []byte) error {
		if p[0] == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("callback error not propagated: %v", err)
	}
	if n != 1 {
		t.Errorf("delivered %d records before error, want 1", n)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 64, NoSync: true})
	for i := 0; i < 5; i++ {
		l.Append(bytes.Repeat([]byte("z"), 50))
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := replayAll(t, dir); len(got) != 0 {
		t.Errorf("records survived Reset: %d", len(got))
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if l.Size() == 0 {
		t.Error("Size() zero after append")
	}
	l.Close()
	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "fresh" {
		t.Errorf("post-reset log = %q", got)
	}
}

func TestClosedOperationsFail(t *testing.T) {
	l := openT(t, t.TempDir(), Options{NoSync: true})
	l.Close()
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close: %v", err)
	}
	if err := l.Reset(); !errors.Is(err, ErrClosed) {
		t.Errorf("Reset after close: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close: %v", err)
	}
}

func TestReplayEmptyOrMissingDir(t *testing.T) {
	n, err := Replay(filepath.Join(t.TempDir(), "nonexistent"), nil)
	if err != nil || n != 0 {
		t.Errorf("missing dir: n=%d err=%v", n, err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644)
	os.WriteFile(filepath.Join(dir, "wal-zzzz.seg"), []byte("junk"), 0o644)
	l := openT(t, dir, Options{NoSync: true})
	l.Append([]byte("ok"))
	l.Close()
	if got := replayAll(t, dir); len(got) != 1 {
		t.Errorf("foreign files disturbed replay: %d records", len(got))
	}
}

func TestSizeAccounting(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 128, NoSync: true})
	for i := 0; i < 10; i++ {
		l.Append(bytes.Repeat([]byte("q"), 40))
	}
	want := int64(10 * (headerSize + 40))
	if got := l.Size(); got != want {
		t.Errorf("Size() = %d, want %d", got, want)
	}
	l.Close()
}

func TestExplicitSync(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	if err := l.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 1 {
		t.Errorf("after sync: %d records", len(got))
	}

	// Without NoSync, every Append is one append and one fsync.
	ls := openT(t, t.TempDir(), Options{})
	defer ls.Close()
	before := ls.Stats()
	for i := 0; i < 3; i++ {
		if err := ls.Append([]byte(fmt.Sprintf("durable-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := ls.Stats()
	if got := st.Appends - before.Appends; got != 3 {
		t.Errorf("3 appends counted %d", got)
	}
	if got := st.Syncs - before.Syncs; got != 3 {
		t.Errorf("3 appends issued %d fsyncs, want 3", got)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	l := openT(t, t.TempDir(), Options{NoSync: true})
	defer l.Close()
	big := make([]byte, MaxRecord+1)
	if err := l.Append(big); err == nil {
		t.Error("oversize payload accepted")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 4096, NoSync: true})
	const goroutines, perG = 8, 200
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				if err := l.Append([]byte(fmt.Sprintf("g%02d-%04d", g, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every record must replay intact, and per-goroutine order must hold.
	lastSeen := map[byte]int{}
	n, err := Replay(dir, func(p []byte) error {
		var g, i int
		if _, err := fmt.Sscanf(string(p), "g%02d-%04d", &g, &i); err != nil {
			return fmt.Errorf("bad record %q: %v", p, err)
		}
		if prev, ok := lastSeen[byte(g)]; ok && i != prev+1 {
			return fmt.Errorf("goroutine %d order broken: %d after %d", g, i, prev)
		}
		lastSeen[byte(g)] = i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != goroutines*perG {
		t.Errorf("replayed %d records, want %d", n, goroutines*perG)
	}
}

// Property: any sequence of appends with arbitrary payloads and any tear
// point in the final segment replays to a strict prefix of the appended
// records.
func TestTornTailPrefixPropertyQuick(t *testing.T) {
	f := func(seed int64, tear uint8) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentSize: 512, NoSync: true})
		if err != nil {
			return false
		}
		var want [][]byte
		for i := 0; i < 20; i++ {
			p := make([]byte, 1+r.Intn(100))
			r.Read(p)
			want = append(want, p)
			if err := l.Append(p); err != nil {
				return false
			}
		}
		l.Close()
		segs, _ := listSegments(dir)
		path := filepath.Join(dir, segs[len(segs)-1].name)
		fi, _ := os.Stat(path)
		cut := int64(tear)%fi.Size() + 1
		os.Truncate(path, fi.Size()-cut)
		var got [][]byte
		if _, err := Replay(dir, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			return false
		}
		if len(got) > len(want) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
