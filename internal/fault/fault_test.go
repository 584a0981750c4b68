package fault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestFaultPassthroughDisarmed(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Fail(Rule{Op: OpAny, Nth: 1, Err: syscall.EIO})
	// Not armed: the rule must not fire and nothing is counted.
	f, err := in.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := in.Calls(); got != 0 {
		t.Fatalf("disarmed injector counted %d calls, want 0", got)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "a")); err != nil || string(got) != "hello" {
		t.Fatalf("file content %q err %v, want hello", got, err)
	}
}

func TestFaultNthCallFailsOnce(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Arm()
	in.Fail(Rule{Op: OpWrite, Nth: 2, Err: syscall.ENOSPC})
	f, err := in.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write 2 err = %v, want ENOSPC", err)
	}
	// Fail-then-succeed: the non-sticky rule fired exactly once.
	if _, err := f.Write([]byte("three")); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	if got := in.Hits(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := in.OpCalls(OpWrite); got != 3 {
		t.Fatalf("write calls = %d, want 3", got)
	}
}

func TestFaultStickyKeepsFailing(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Arm()
	in.Fail(Rule{Op: OpSync, Nth: 1, Err: syscall.EIO, Sticky: true})
	f, err := in.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %d err = %v, want EIO", i, err)
		}
	}
	if got := in.Hits(); got != 3 {
		t.Fatalf("hits = %d, want 3", got)
	}
}

func TestFaultShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Arm()
	in.Fail(Rule{Op: OpWrite, Nth: 1, Err: syscall.EIO, Short: 3})
	f, err := in.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, syscall.EIO) || n != 3 {
		t.Fatalf("short write = (%d, %v), want (3, EIO)", n, err)
	}
	f.Close()
	got, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil || string(got) != "abc" {
		t.Fatalf("torn file content %q err %v, want abc", got, err)
	}
}

func TestFaultPathFilterAndOpCounts(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Arm()
	in.Fail(Rule{Op: OpRename, Path: "victim", Nth: 1, Err: syscall.EXDEV})
	ok := filepath.Join(dir, "ok")
	victim := filepath.Join(dir, "victim")
	for _, p := range []string{ok, victim} {
		f, err := in.Create(p)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		f.Close()
	}
	if err := in.Rename(ok, ok+".moved"); err != nil {
		t.Fatalf("rename ok: %v", err)
	}
	if err := in.Rename(victim, victim+".moved"); !errors.Is(err, syscall.EXDEV) {
		t.Fatalf("rename victim err = %v, want EXDEV", err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("victim should be untouched after injected rename failure: %v", err)
	}
	if got := in.OpCalls(OpRename); got != 2 {
		t.Fatalf("rename calls = %d, want 2", got)
	}
	if got := in.OpCalls(OpCreate); got != 2 {
		t.Fatalf("create calls = %d, want 2", got)
	}
}
