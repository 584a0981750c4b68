// Package wal implements a segmented write-ahead log with CRC-framed
// records and torn-tail recovery. Records are opaque payloads; the
// storage layer defines their meaning.
//
// On-disk layout: a directory of segment files named wal-<16 hex digits>.seg,
// numbered from 1, each a concatenation of frames:
//
//	byte   magic 0x57 ('W')
//	uint32 payload length (little endian)
//	uint32 CRC-32C of the payload
//	bytes  payload
//
// A crash can leave a torn frame only at the very end of the newest
// segment; Open truncates it and Replay tolerates it. A bad frame
// anywhere else is real corruption and is reported as ErrCorrupt.
//
// Append is the only write primitive: one record, one buffered write
// and one fsync. Callers that group-commit (the storage layer does)
// encode a whole batch as one record, which also makes the batch
// all-or-nothing on replay. Stats counts appends and fsyncs so callers
// can assert the amortization.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

// MaxRecord bounds one WAL frame: larger appends are rejected, and
// larger frames on disk are treated as corruption.
const MaxRecord = 64 << 20

const (
	frameMagic  = 0x57
	headerSize  = 1 + 4 + 4
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	defaultSeg  = 4 << 20
	segNameDigs = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors reported by the package.
var (
	ErrCorrupt = errors.New("wal: corrupt log")
	ErrClosed  = errors.New("wal: log is closed")
)

// Options configures a Log. The zero value is usable: 4 MiB segments,
// fsync on every append.
type Options struct {
	// SegmentSize is the byte threshold after which a new segment file is
	// started. Zero means the 4 MiB default.
	SegmentSize int64
	// NoSync skips fsync after each append. Throughput rises sharply and
	// the most recent appends may be lost on power failure; the log is
	// still never corrupted beyond the torn tail.
	NoSync bool
	// FS is the filesystem seam the write path goes through. Nil means
	// the real filesystem. The recovery path (Replay, torn-tail scan)
	// always reads through the os package directly.
	FS fault.FS
}

func (o *Options) segmentSize() int64 {
	if o.SegmentSize <= 0 {
		return defaultSeg
	}
	return o.SegmentSize
}

func (o *Options) fs() fault.FS {
	if o.FS == nil {
		return fault.OS
	}
	return o.FS
}

// Log is an open write-ahead log. Methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       fault.File
	seg     uint64 // index of the open segment
	size    int64  // bytes written to the open segment
	total   int64  // bytes across all segments
	closed  bool
	failed  bool  // sticky: a write-path I/O error latched the log read-only
	failErr error // the error that latched failed
	scratch []byte
	st      Stats
	// Every fsync and frame-encode pass; fsync dominates commit latency
	// by orders of magnitude, and exposing both makes the gap visible.
	fsyncHist, encodeHist obs.Histogram
}

// RegisterMetrics files the log's latency histograms on r.
func (l *Log) RegisterMetrics(r *obs.Registry) {
	r.AddHistogram("authdex_wal_fsync_duration_seconds", "Latency of WAL fsync calls.", &l.fsyncHist)
	r.AddHistogram("authdex_wal_frame_encode_duration_seconds",
		"Latency of WAL frame encoding, one observation per append.", &l.encodeHist)
}

// Stats counts write-path work since the log was opened. The group-
// commit invariant — a batch of N records costs one append and at most
// one fsync — is asserted against these counters by the storage and
// facade test suites.
type Stats struct {
	// Appends is the number of records appended.
	Appends int64
	// Syncs is the number of fsyncs issued (appends, explicit Sync,
	// segment rotation and Close all count).
	Syncs int64
}

// Stats returns a snapshot of the write-path counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// Open opens (creating if needed) the log in dir. The newest existing
// segment is scanned and any torn tail is truncated away; appends then
// continue into it, or into a fresh segment if it is already full.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	for _, s := range segs[:max(0, len(segs)-1)] {
		fi, err := os.Stat(filepath.Join(dir, s.name))
		if err != nil {
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		l.total += fi.Size()
	}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, last.name)
	valid, _, err := scanSegment(path, nil)
	if err != nil && !errors.Is(err, errTorn) {
		return nil, err
	}
	if err := os.Truncate(path, valid); err != nil {
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if valid >= opts.segmentSize() {
		l.total += valid
		if err := l.openSegment(last.index + 1); err != nil {
			return nil, err
		}
		return l, nil
	}
	f, err := opts.fs().OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	l.f, l.seg, l.size = f, last.index, valid
	l.total += valid
	return l, nil
}

// Append writes one record. The payload must be non-empty and smaller
// than the 64 MiB frame limit. When the record is durable (or buffered,
// under NoSync) Append returns nil.
func (l *Log) Append(p []byte) error { return l.AppendCtx(context.Background(), p) }

// AppendCtx is Append carrying a trace context: frame encoding and the
// fsync are recorded as separate child spans so slow commits attribute
// their latency to CPU (encode) or the disk (fsync).
func (l *Log) AppendCtx(ctx context.Context, p []byte) error {
	if len(p) == 0 {
		return errors.New("wal: empty payload")
	}
	if len(p) > MaxRecord {
		return fmt.Errorf("wal: payload %d bytes exceeds frame limit", len(p))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return fault.ErrDegraded
	}
	if l.size >= l.opts.segmentSize() {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	_, enc := trace.Time(ctx, "wal.encode", &l.encodeHist)
	l.scratch = appendFrame(l.scratch[:0], p)
	enc.Span.SetInt("bytes", int64(len(l.scratch)))
	enc.End()
	if _, err := l.f.Write(l.scratch); err != nil {
		l.failLocked(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.syncLockedCtx(ctx); err != nil {
			l.failLocked(err)
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	n := int64(len(l.scratch))
	l.size += n
	l.total += n
	l.st.Appends++
	return nil
}

// appendFrame encodes one record frame onto dst.
func appendFrame(dst, p []byte) []byte {
	dst = append(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(p, castagnoli))
	return append(dst, p...)
}

// syncLocked issues one fsync on the open segment, counting it and
// timing it. Every fsync the log performs funnels through here.
func (l *Log) syncLocked() error { return l.syncLockedCtx(context.Background()) }

func (l *Log) syncLockedCtx(ctx context.Context) error {
	l.st.Syncs++
	_, fsync := trace.Time(ctx, "wal.fsync", &l.fsyncHist)
	err := l.f.Sync()
	fsync.End()
	return err
}

// failLocked latches the log read-only after a write-path I/O error.
// The open segment is best-effort truncated back to its last committed
// size so bytes buffered past the failure point — a torn frame after a
// failed write, an un-fsynced frame after a failed fsync — cannot
// resurface on replay. The fd is never fsynced again: after a failed
// fsync the kernel may have dropped the dirty pages while marking them
// clean, so a retried fsync can report success for data that was lost
// (the "fsyncgate" failure mode). Every later append returns
// fault.ErrDegraded.
func (l *Log) failLocked(err error) {
	if l.failed {
		return
	}
	l.failed = true
	l.failErr = err
	if l.f != nil {
		l.f.Truncate(l.size) // best effort; replay tolerates a torn tail anyway
	}
}

// Failed reports whether a write-path I/O error has latched the log
// read-only, and the error that did.
func (l *Log) Failed() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed, l.failErr
}

// Sync forces buffered appends to stable storage. Only meaningful with
// NoSync; otherwise every Append already synced. A failed log is never
// fsynced again.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return fault.ErrDegraded
	}
	if err := l.syncLocked(); err != nil {
		l.failLocked(err)
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Size returns the total bytes across all segments, including the open one.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Reset deletes every segment and starts an empty one; the storage layer
// calls this immediately after writing a snapshot. A partial failure —
// the old segment close, a segment remove, the fresh-segment create —
// latches the log read-only; leftover segments only re-deliver records
// the snapshot already holds, which replay applies idempotently.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return fault.ErrDegraded
	}
	if err := l.f.Close(); err != nil {
		l.failLocked(err)
		return fmt.Errorf("wal: reset: %w", err)
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := l.opts.fs().Remove(filepath.Join(l.dir, s.name)); err != nil {
			l.failLocked(err)
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	l.total = 0
	if err := l.openSegmentLocked(1); err != nil {
		l.failLocked(err)
		return err
	}
	return nil
}

// Close flushes and closes the log. Further operations return ErrClosed.
// A failed log is closed without the flush — never re-fsync a failed fd
// — and without reporting an error: degradation was already surfaced
// when it latched.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.failed {
		l.f.Close() // best effort: release the fd, keep the latched error
		return nil
	}
	if err := l.syncLocked(); err != nil {
		l.failLocked(err)
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	return l.f.Close()
}

func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		l.failLocked(err)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		l.failLocked(err)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.openSegmentLocked(l.seg + 1); err != nil {
		l.failLocked(err)
		return err
	}
	return nil
}

func (l *Log) openSegment(index uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.openSegmentLocked(index)
}

func (l *Log) openSegmentLocked(index uint64) error {
	name := segmentName(index)
	f, err := l.opts.fs().OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f, l.seg, l.size = f, index, 0
	return nil
}

// Replay invokes fn for every intact record across all segments in
// order. A torn frame at the tail of the newest segment ends the replay
// cleanly; a bad frame anywhere else returns ErrCorrupt. fn errors abort
// the replay. The returned count is the number of records delivered.
func Replay(dir string, fn func(payload []byte) error) (int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for i, s := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, s.name)
		valid, n, err := scanSegment(path, fn)
		total += n
		if err != nil {
			if errors.Is(err, errTorn) && last {
				return total, nil
			}
			if errors.Is(err, errTorn) {
				return total, fmt.Errorf("%w: torn frame mid-log in %s at offset %d", ErrCorrupt, s.name, valid)
			}
			return total, err
		}
	}
	return total, nil
}

// errTorn marks an incomplete or CRC-failing frame; callers decide
// whether its position makes it benign (tail) or fatal (middle).
var errTorn = errors.New("wal: torn frame")

// scanSegment reads frames from path, calling fn (if non-nil) per
// payload. It returns the byte offset of the end of the last intact
// frame, the number of intact frames, and errTorn if the segment ends in
// a damaged frame.
func scanSegment(path string, fn func([]byte) error) (validLen int64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: scan: %w", err)
	}
	defer f.Close()
	var (
		hdr [headerSize]byte
		buf []byte
		off int64
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return off, n, nil // clean end
			}
			return off, n, errTorn // partial header
		}
		if hdr[0] != frameMagic {
			return off, n, errTorn
		}
		length := binary.LittleEndian.Uint32(hdr[1:5])
		want := binary.LittleEndian.Uint32(hdr[5:9])
		if length == 0 || length > MaxRecord {
			return off, n, errTorn
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(f, buf); err != nil {
			return off, n, errTorn // partial payload
		}
		if crc32.Checksum(buf, castagnoli) != want {
			return off, n, errTorn
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return off, n, err
			}
		}
		off += int64(headerSize) + int64(length)
		n++
	}
}

type segment struct {
	name  string
	index uint64
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexPart := name[len(segPrefix) : len(name)-len(segSuffix)]
		idx, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, segment{name: name, index: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

func segmentName(index uint64) string {
	return fmt.Sprintf("%s%0*x%s", segPrefix, segNameDigs, index, segSuffix)
}
