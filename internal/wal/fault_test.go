package wal

import (
	"errors"
	"syscall"
	"testing"

	"repro/internal/fault"
)

// replayStrings collects every replayed payload as a string.
func replayStrings(t *testing.T, dir string) []string {
	t.Helper()
	var got []string
	if _, err := Replay(dir, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestFaultSyncFailureLatchesAndNeverRefsyncs(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	l, err := Open(dir, Options{FS: in})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append([]byte("committed")); err != nil {
		t.Fatalf("append: %v", err)
	}
	in.Arm()
	in.Fail(fault.Rule{Op: fault.OpSync, Nth: 1, Err: syscall.EIO})
	if err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	if failed, ferr := l.Failed(); !failed || !errors.Is(ferr, syscall.EIO) {
		t.Fatalf("Failed() = (%v, %v), want latched EIO", failed, ferr)
	}
	syncs := in.OpCalls(fault.OpSync)

	// The latch is sticky: later writes fail fast with ErrDegraded and —
	// the fsyncgate rule — the fd is never fsynced again, not even by
	// Close. The injected rule was fail-once, so a retried fsync would
	// have "succeeded" and shown up in the op counter.
	if err := l.Append([]byte("rejected")); !errors.Is(err, fault.ErrDegraded) {
		t.Fatalf("append after latch = %v, want ErrDegraded", err)
	}
	if err := l.Sync(); !errors.Is(err, fault.ErrDegraded) {
		t.Fatalf("sync after latch = %v, want ErrDegraded", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close of failed log: %v", err)
	}
	if got := in.OpCalls(fault.OpSync); got != syncs {
		t.Fatalf("fsync attempted after failure: %d calls, want %d", got, syncs)
	}

	// The un-fsynced frame was truncated away: only the committed record
	// replays, so the failed commit cannot resurface after a reopen.
	if got := replayStrings(t, dir); len(got) != 1 || got[0] != "committed" {
		t.Fatalf("replayed %q, want just the committed record", got)
	}
}

func TestFaultShortWriteTornFrameAbsentOnReplay(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	l, err := Open(dir, Options{FS: in})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append([]byte("committed")); err != nil {
		t.Fatalf("append: %v", err)
	}
	in.Arm()
	in.Fail(fault.Rule{Op: fault.OpWrite, Nth: 1, Err: syscall.EIO, Short: 5})
	if err := l.Append([]byte("torn-record")); err == nil {
		t.Fatal("append with torn write succeeded")
	}
	if failed, _ := l.Failed(); !failed {
		t.Fatal("short write did not latch the log")
	}
	if st := l.Stats(); st.Appends != 1 {
		t.Fatalf("failed append counted in stats: %+v", st)
	}
	l.Close()
	if got := replayStrings(t, dir); len(got) != 1 || got[0] != "committed" {
		t.Fatalf("replayed %q, want just the committed record", got)
	}

	// A clean reopen starts a fresh, un-failed log over the same dir.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if failed, _ := l2.Failed(); failed {
		t.Fatal("reopened log inherited the failure latch")
	}
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := replayStrings(t, dir); len(got) != 2 || got[1] != "after" {
		t.Fatalf("replayed %q, want committed+after", got)
	}
}

func TestFaultResetFailureLatches(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	l, err := Open(dir, Options{FS: in})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatalf("append: %v", err)
	}
	in.Arm()
	in.Fail(fault.Rule{Op: fault.OpRemove, Nth: 1, Err: syscall.EACCES})
	if err := l.Reset(); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("reset = %v, want EACCES", err)
	}
	if failed, _ := l.Failed(); !failed {
		t.Fatal("failed reset did not latch the log")
	}
	if err := l.Append([]byte("x")); !errors.Is(err, fault.ErrDegraded) {
		t.Fatalf("append after failed reset = %v, want ErrDegraded", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
