package storage

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
)

// openFault opens a durable store whose write path goes through the
// given injector.
func openFault(t *testing.T, dir string, in *fault.Injector) *Store {
	t.Helper()
	s, err := Open(dir, Options{FS: in})
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

// TestFaultCompactRenameCleansTemp is the regression test for the
// orphaned snapshot.tmp: a failed rename must remove the temp file,
// degrade the store, and leave the previous snapshot + WAL intact so a
// reopen recovers every committed work.
func TestFaultCompactRenameCleansTemp(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	s := openFault(t, dir, in)
	for i := 0; i < 3; i++ {
		if _, err := put(s, work("W", 1, i+1, 2000, "Alpha")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	in.Arm()
	in.Fail(fault.Rule{Op: fault.OpRename, Nth: 1, Err: syscall.EXDEV})
	if err := s.Compact(); !errors.Is(err, syscall.EXDEV) {
		t.Fatalf("compact = %v, want EXDEV", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !os.IsNotExist(err) {
		t.Fatalf("snapshot.tmp left behind after failed rename (stat err %v)", err)
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("failed compaction rename did not degrade the store")
	}
	if _, err := put(s, work("X", 1, 9, 2000, "Beta")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("put after degrade = %v, want ErrDegraded", err)
	}
	// Reads keep serving on the degraded handle.
	if s.Len() != 3 {
		t.Fatalf("degraded Len = %d, want 3", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close degraded store: %v", err)
	}

	// Clean reopen: all three committed works recover from the old
	// snapshot + WAL, and the latch is gone.
	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	if deg, _ := s2.Degraded(); deg {
		t.Fatal("reopened store inherited the degraded latch")
	}
	if _, err := put(s2, work("Y", 2, 1, 2001, "Gamma")); err != nil {
		t.Fatalf("put after reopen: %v", err)
	}
}

// TestFaultDegradedRejectsEveryWrite latches the store via a WAL fsync
// failure and checks that every write entry point fails fast with
// ErrDegraded while reads and Stats keep working.
func TestFaultDegradedRejectsEveryWrite(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	s := openFault(t, dir, in)
	defer s.Close()
	id, err := put(s, work("Kept", 1, 1, 2000, "Alpha"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	xref := CrossRef{From: work("a", 1, 1, 2000, "Twain").Authors[0], To: work("b", 1, 1, 2000, "Clemens").Authors[0]}
	if err := s.AddCrossRef(xref); err != nil {
		t.Fatalf("xref: %v", err)
	}

	in.Arm()
	in.Fail(fault.Rule{Op: fault.OpSync, Nth: 1, Err: syscall.EIO})
	if _, err := put(s, work("Doomed", 1, 2, 2000, "Beta")); err == nil {
		t.Fatal("put with failing fsync succeeded")
	}
	if deg, cause := s.Degraded(); !deg || !errors.Is(cause, syscall.EIO) {
		t.Fatalf("Degraded = (%v, %v), want latched EIO", deg, cause)
	}

	writes := []struct {
		name string
		op   func() error
	}{
		{"Put", func() error { _, err := put(s, work("n", 1, 3, 2000, "C")); return err }},
		{"Delete", func() error { return del(s, id) }},
		{"PutBatch", func() error { _, err := s.PutBatch([]*model.Work{work("n", 1, 4, 2000, "D")}); return err }},
		{"DeleteBatch", func() error { return s.DeleteBatch([]model.WorkID{id}) }},
		{"AddCrossRef", func() error { return s.AddCrossRef(xref) }},
		{"DeleteCrossRef", func() error { return s.DeleteCrossRef(xref) }},
		{"Compact", func() error { return s.Compact() }},
	}
	for _, w := range writes {
		if err := w.op(); !errors.Is(err, ErrDegraded) {
			t.Errorf("%s on degraded store = %v, want ErrDegraded", w.name, err)
		}
	}

	// Reads and the committed state are untouched.
	if got, ok := get(s, id); !ok || got.Title != "Kept" {
		t.Fatalf("degraded Get = %v,%v", got, ok)
	}
	if len(s.CrossRefs()) != 1 {
		t.Fatalf("degraded CrossRefs = %d, want 1", len(s.CrossRefs()))
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("stats not reporting degradation: %+v", st)
	}
	// Trigger + the 7 rejected writes above.
	if st.DegradedWrites != 8 {
		t.Fatalf("DegradedWrites = %d, want 8", st.DegradedWrites)
	}
}

// TestFaultAutoCompactFailureKeepsCommit checks that a put whose
// follow-on automatic compaction fails is still reported as committed:
// the data is durable, the store degrades instead of lying about the
// commit, and the work survives a reopen.
func TestFaultAutoCompactFailureKeepsCommit(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	s, err := Open(dir, Options{FS: in, CompactEvery: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := put(s, work("First", 1, 1, 2000, "Alpha")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	in.Arm()
	// The second put trips CompactEvery; fail the snapshot temp create.
	in.Fail(fault.Rule{Op: fault.OpCreate, Nth: 1, Err: syscall.ENOSPC})
	id, err := put(s, work("Second", 1, 2, 2000, "Beta"))
	if err != nil {
		t.Fatalf("put whose auto-compact failed must still report success, got %v", err)
	}
	if deg, cause := s.Degraded(); !deg || !errors.Is(cause, syscall.ENOSPC) {
		t.Fatalf("Degraded = (%v, %v), want latched ENOSPC", deg, cause)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if got, ok := get(s2, id); !ok || got.Title != "Second" {
		t.Fatalf("committed-then-degraded work lost on reopen: %v,%v", got, ok)
	}
}
