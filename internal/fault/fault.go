// Package fault is the filesystem seam under the durable write path.
//
// The WAL and storage layers never touch the os package directly for
// write-side I/O; they go through a fault.FS. In production that is the
// passthrough OS implementation. In tests an Injector wraps it and can
// fail the Nth call of any operation with a chosen error, a short
// write, or a sticky (fail-forever) pattern — deterministically, so a
// chaos suite can sweep a single fault across every I/O call site of
// every write operation.
//
// The package also owns ErrDegraded, the sentinel for the sticky
// read-only mode the index enters after a write-path I/O failure. It
// lives here — below both wal and storage — so either layer can report
// it without an import cycle.
package fault

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"strings"
	"sync"
)

// ErrDegraded is returned by every write once the index has latched
// read-only after a write-path I/O failure. Reads keep serving; the
// latch clears only on reopen.
var ErrDegraded = errors.New("degraded: write path disabled after an I/O failure; index is read-only")

// Op identifies one class of filesystem operation for injection rules
// and per-op call counters.
type Op string

const (
	// OpAny matches every operation in a Rule.
	OpAny Op = ""

	OpOpen     Op = "open"
	OpCreate   Op = "create"
	OpOpenFile Op = "openfile"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpTruncate Op = "truncate"
)

// File is the handle surface the durable write path needs. *os.File
// satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem seam. Open is used read-only (directory fsync);
// Create and OpenFile produce writable handles.
type FS interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// OS is the passthrough FS used when no injector is installed.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

// Rule arms one deterministic failure.
type Rule struct {
	// Op restricts the rule to one operation class; OpAny matches all.
	Op Op
	// Path, when non-empty, restricts the rule to paths containing it
	// as a substring.
	Path string
	// Nth fires the rule on the Nth matching armed call (1-based).
	// Zero fires on every matching call.
	Nth int64
	// Err is the error injected when the rule fires. Rules with a nil
	// Err never fire.
	Err error
	// Short, for OpWrite rules, is the number of bytes actually written
	// before Err is returned — a torn write. Zero writes nothing.
	Short int
	// Sticky keeps the rule firing on every matching call at or after
	// Nth, instead of exactly once (fail-then-succeed).
	Sticky bool
}

// Injector is a deterministic fault-injecting FS wrapper. It only
// counts and fails calls made while armed, so test setup and teardown
// run clean; the operation under test is bracketed by Arm/Disarm.
type Injector struct {
	inner FS

	mu    sync.Mutex
	armed bool
	calls int64
	perOp map[Op]int64
	rules []*armedRule
	hits  int64
}

type armedRule struct {
	Rule
	seen int64
}

// NewInjector wraps inner (nil means the real filesystem).
func NewInjector(inner FS) *Injector {
	if inner == nil {
		inner = OS
	}
	return &Injector{inner: inner, perOp: make(map[Op]int64)}
}

// Arm starts counting calls and applying rules.
func (in *Injector) Arm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = true
}

// Disarm makes the injector a pure passthrough again. Counters and
// rules are kept.
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = false
}

// Reset clears rules and counters; the armed state is
// unchanged.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls = 0
	in.perOp = make(map[Op]int64)
	in.rules = nil
	in.hits = 0
}

// Fail installs a rule. Rules are checked in installation order; the
// first that fires wins.
func (in *Injector) Fail(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &armedRule{Rule: r})
}

// Calls returns the number of armed FS calls observed since the last
// Reset.
func (in *Injector) Calls() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// OpCalls returns the number of armed calls observed for one op.
func (in *Injector) OpCalls(op Op) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.perOp[op]
}

// Hits returns how many times any rule has fired.
func (in *Injector) Hits() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits
}

// check records one armed call and consults the rules. The returned
// short count is meaningful only for OpWrite when err is non-nil.
func (in *Injector) check(op Op, path string) (short int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed {
		return 0, nil
	}
	in.calls++
	in.perOp[op]++
	for _, r := range in.rules {
		if r.Err == nil {
			continue
		}
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		fire := r.Nth == 0 || r.seen == r.Nth || (r.Sticky && r.seen > r.Nth)
		if fire {
			in.hits++
			return r.Short, r.Err
		}
	}
	return 0, nil
}

func (in *Injector) Open(name string) (File, error) {
	if _, err := in.check(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) Create(name string) (File, error) {
	if _, err := in.check(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := in.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	if _, err := in.check(OpOpenFile, name); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if _, err := in.check(OpRename, oldpath); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if _, err := in.check(OpRemove, name); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

// injFile routes the handle ops back through the injector.
type injFile struct {
	in *Injector
	f  File
}

func (fl *injFile) Write(p []byte) (int, error) {
	short, err := fl.in.check(OpWrite, fl.f.Name())
	if err != nil {
		n := 0
		if short > 0 {
			n, _ = fl.f.Write(p[:min(short, len(p))])
		}
		return n, err
	}
	return fl.f.Write(p)
}

func (fl *injFile) Sync() error {
	if _, err := fl.in.check(OpSync, fl.f.Name()); err != nil {
		return err
	}
	return fl.f.Sync()
}

func (fl *injFile) Close() error {
	if _, err := fl.in.check(OpClose, fl.f.Name()); err != nil {
		fl.f.Close() // release the fd regardless; the error stands
		return err
	}
	return fl.f.Close()
}

func (fl *injFile) Truncate(size int64) error {
	if _, err := fl.in.check(OpTruncate, fl.f.Name()); err != nil {
		return err
	}
	return fl.f.Truncate(size)
}

func (fl *injFile) Name() string { return fl.f.Name() }
