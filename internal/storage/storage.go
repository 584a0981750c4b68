// Package storage implements the durable record store underneath the
// author-index engine: a snapshot of encoded works plus a write-ahead
// log. It keeps no decoded copy of the corpus: in RAM it holds the live
// IDs and the works put since the last compaction (the delta). PutBatch
// takes ownership of the works it is handed and files them in the delta
// as they are, so a caller that indexes the same records (the facade's
// engine does) shares them with the store instead of holding a copy.
//
// Every mutation is appended to the WAL before being applied, so a crash
// at any instant loses at most the in-flight operation. Works are
// written only in batches (PutBatch, DeleteBatch; a single work is a
// batch of one), and each batch group-commits: it is encoded into one
// WAL frame, appended and fsynced once, and applied — or replayed —
// atomically, so a torn tail can never surface half a batch. Replay
// still decodes the single-work put and delete records older logs
// hold; a one-work put batch frame is the same size as such a put.
//
// Compact writes a CRC-protected snapshot (atomically, via rename) and
// resets the WAL, copying the old snapshot's live records byte for byte
// and encoding the delta. Recovery scans the snapshot for IDs, decoding
// no work, and replays the WAL suffix into the delta. Every snapshot
// scan streams the file and checks its CRC as it goes; nothing from a
// scan is kept unless the checksum matches.
//
// A Store opened with an empty directory path is purely in-memory: same
// API, no durability — useful for tests and benchmarks. It never
// compacts, so its delta is the whole corpus: the same records the
// engine indexes, not a second copy of them.
package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Errors reported by the package.
var (
	ErrNotFound = errors.New("storage: work not found")
	ErrClosed   = errors.New("storage: store is closed")
	ErrCorrupt  = errors.New("storage: corrupt data")
	// ErrDegraded is returned by every write once a write-path I/O
	// failure has latched the store read-only. Reads keep serving; the
	// latch clears only on reopen.
	ErrDegraded = fault.ErrDegraded
)

// WAL operation tags. opPut and opDelete are replayed but no longer
// written: logs from before every write became a batch hold them.
const (
	opPut      = 1 // one work encoding
	opDelete   = 2 // one uvarint ID
	opXRefAdd  = 3
	opXRefDel  = 4
	opPutBatch = 5 // work encodings, back to back until the frame ends
	opDelBatch = 6 // uvarint IDs, back to back until the frame ends
)

// batchFrameBytes caps one batch's WAL frame. A batch is exactly one
// frame — that is what makes crash recovery all-or-nothing, since a
// frame applies atomically on replay — so a batch that encodes past the
// cap is rejected outright rather than split into frames that a torn
// tail could partially surface. The cap sits under the WAL's 64 MiB
// record limit; callers with more data issue multiple batches. A var
// so tests can exercise rejection without gigabyte corpora.
var batchFrameBytes = 60 << 20

// CrossRef is a persisted "see also" reference between author headings.
type CrossRef struct {
	From, To model.Author
}

const (
	snapshotFile = "snapshot.dat"
	snapshotTmp  = "snapshot.tmp"
	walSubdir    = "wal"
	snapMagic    = "AIDXSNP1"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// WAL is passed through to the write-ahead log.
	WAL wal.Options
	// CompactEvery triggers an automatic Compact after this many logged
	// operations. Zero disables automatic compaction.
	CompactEvery int
	// FS is the filesystem seam the write path (snapshot compaction,
	// and — unless WAL.FS overrides it — the WAL) goes through. Nil
	// means the real filesystem.
	FS fault.FS
}

// Store is a durable map from WorkID to Work. All methods are safe for
// concurrent use. Works it holds and hands out are shared read-only: a
// stored work is never mutated in place (a later put of its ID files
// another record), so callers may keep them but must Clone one to
// change it.
type Store struct {
	mu sync.RWMutex

	dir    string
	log    *wal.Log // nil in memory-only mode
	fs     fault.FS
	opts   Options
	closed bool
	// degraded is the sticky read-only latch: set on the first
	// write-path I/O failure, cleared only by reopening the store.
	degraded       bool
	degradedErr    error
	degradedWrites int64 // commits failed or rejected by the latch

	// ids holds every live work's ID. It has no pointers, so the
	// collector never scans it.
	ids map[model.WorkID]struct{}
	// delta holds the works put since the last successful compaction. A
	// snapshot record is live while its ID is in ids and not in delta.
	delta    map[model.WorkID]*model.Work
	xrefs    []CrossRef
	nextID   model.WorkID
	opsSince int // operations logged since the last snapshot

	batches     int64 // batch commits applied (PutBatch + DeleteBatch)
	fsyncsSaved int64 // WAL commits avoided by batching (N records, 1 commit)
	// Encoding is the CPU a commit pays before the WAL's fsync;
	// compaction is the stop-the-world snapshot rewrite.
	encodeHist, compactHist obs.Histogram
}

// RegisterMetrics files the store's latency histograms on r, and its
// log's when the store is durable.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.AddHistogram("authdex_storage_encode_duration_seconds",
		"Latency of encoding works into WAL frames, one observation per put or batch.", &s.encodeHist)
	r.AddHistogram("authdex_storage_compact_duration_seconds", "Latency of snapshot compaction passes.", &s.compactHist)
	if s.log != nil {
		s.log.RegisterMetrics(r)
	}
}

// Open opens (creating if necessary) a store rooted at dir. An empty dir
// yields a volatile in-memory store.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:    dir,
		fs:     opts.FS,
		opts:   opts,
		ids:    make(map[model.WorkID]struct{}),
		delta:  make(map[model.WorkID]*model.Work),
		nextID: 1,
	}
	if s.fs == nil {
		s.fs = fault.OS
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open: %w", err)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	// Replay interns repeated strings (author name parts, subject
	// headings) across the whole log.
	in := model.NewInterner()
	walDir := filepath.Join(dir, walSubdir)
	if _, err := wal.Replay(walDir, func(p []byte) error { return s.applyRecord(p, in) }); err != nil {
		return nil, fmt.Errorf("storage: replay: %w", err)
	}
	wopts := opts.WAL
	if wopts.FS == nil {
		wopts.FS = opts.FS
	}
	log, err := wal.Open(walDir, wopts)
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// PutBatch stores N validated works under one group commit: a zero ID
// takes the next free ID, an explicit ID inserts or overwrites (and
// moves the counter past it), every record is encoded into a single
// opPutBatch WAL frame, the frame is appended and fsynced once, and
// only then are the works added to the delta. One
// frame is also the crash-atomicity unit: recovery replays the whole
// batch or none of it, so a batch that would encode past the frame cap
// (~60 MiB) is rejected — issue several batches instead. The ordering
// is encode-then-commit-then-apply: any failure — a work that does not
// validate, an oversize batch, a WAL error — leaves the store
// byte-identical to its pre-batch state, next-ID counter included. The
// assigned IDs are returned in input order.
//
// PutBatch takes ownership of the works, as distinct records: it sets
// each one's assigned ID on the work itself and files the work in the
// delta uncopied, so the caller must not modify them afterwards. A
// batch that fails validation or the writable check is left untouched;
// one that fails later (the frame cap, the WAL) may carry its assigned
// IDs, and the store keeps none of it.
func (s *Store) PutBatch(works []*model.Work) ([]model.WorkID, error) {
	return s.PutBatchCtx(context.Background(), works)
}

// PutBatchCtx is PutBatch carrying a trace context; the batch commit is
// one "store.put_batch" span with the record count attached.
func (s *Store) PutBatchCtx(ctx context.Context, works []*model.Work) ([]model.WorkID, error) {
	if len(works) == 0 {
		return nil, nil
	}
	ctx, span := trace.StartSpan(ctx, "store.put_batch")
	span.SetInt("records", int64(len(works)))
	defer span.End()
	for _, w := range works {
		if err := w.Validate(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	ids := make([]model.WorkID, len(works))
	next := s.nextID // tentative: committed only after the WAL accepts the batch
	for i, w := range works {
		if w.ID == 0 {
			w.ID = next
		}
		if w.ID >= next {
			next = w.ID + 1
		}
		ids[i] = w.ID
	}
	if s.log != nil {
		frame, err := s.encodePutBatchFrame(works)
		if err != nil {
			return nil, err
		}
		if err := s.logLocked(ctx, frame, len(works)); err != nil {
			return nil, err
		}
	}
	for _, w := range works {
		s.applyPut(w)
	}
	s.batches++
	s.fsyncsSaved += int64(len(works) - 1)
	return ids, s.maybeCompactLocked()
}

// DeleteBatch removes N works under one group commit. Every ID must be
// present (duplicates in the slice are tolerated); a missing ID or a
// WAL error leaves the store unchanged.
func (s *Store) DeleteBatch(ids []model.WorkID) error {
	return s.DeleteBatchCtx(context.Background(), ids)
}

// DeleteBatchCtx is DeleteBatch carrying a trace context; the batch
// commit is one "store.delete_batch" span with the record count
// attached.
func (s *Store) DeleteBatchCtx(ctx context.Context, ids []model.WorkID) error {
	if len(ids) == 0 {
		return nil
	}
	ctx, span := trace.StartSpan(ctx, "store.delete_batch")
	span.SetInt("records", int64(len(ids)))
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	for _, id := range ids {
		if _, ok := s.ids[id]; !ok {
			return fmt.Errorf("%w: id %d", ErrNotFound, id)
		}
	}
	if s.log != nil {
		payload := make([]byte, 0, 1+len(ids)*binary.MaxVarintLen64)
		payload = append(payload, opDelBatch)
		for _, id := range ids {
			payload = binary.AppendUvarint(payload, uint64(id))
		}
		if len(payload) > batchFrameBytes {
			return fmt.Errorf("storage: delete batch encodes to %d bytes, over the %d-byte frame cap; issue several batches", len(payload), batchFrameBytes)
		}
		if err := s.logLocked(ctx, payload, len(ids)); err != nil {
			return err
		}
	}
	for _, id := range ids {
		delete(s.ids, id)
		delete(s.delta, id)
	}
	s.batches++
	s.fsyncsSaved += int64(len(ids) - 1)
	return s.maybeCompactLocked()
}

// encodePutBatchFrame encodes the whole batch into one opPutBatch
// frame in a single streaming pass. Work encodings are self-delimiting,
// so the frame is just the tag followed by works back to back. A batch
// that encodes past the frame cap is an error: one frame is the
// crash-atomicity unit, and splitting would let a torn tail surface
// half a batch.
func (s *Store) encodePutBatchFrame(works []*model.Work) ([]byte, error) {
	start := time.Now()
	frame := []byte{opPutBatch}
	for _, w := range works {
		frame = model.AppendWork(frame, w)
	}
	s.encodeHist.Since(start)
	if len(frame) > batchFrameBytes {
		return nil, fmt.Errorf("storage: batch of %d works encodes to %d bytes, over the %d-byte frame cap; issue several batches", len(works), len(frame), batchFrameBytes)
	}
	return frame, nil
}

// Len returns the number of stored works.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ids)
}

// ForEach calls fn with every stored work, in unspecified order,
// stopping at the first error: the snapshot's live records, streamed
// from disk and decoded through one interner under the read lock, then
// the delta. Both are shared read-only (see Store). fn runs without the
// store's lock held.
func (s *Store) ForEach(fn func(*model.Work) error) error {
	s.mu.RLock()
	works := make([]*model.Work, 0, len(s.ids))
	in := model.NewInterner()
	err := s.liveSnapshotLocked(func(rec []byte) error {
		w, _, err := model.DecodeWorkInterned(rec, in)
		if err != nil {
			return fmt.Errorf("%w: snapshot work: %v", ErrCorrupt, err)
		}
		works = append(works, w)
		return nil
	})
	for _, w := range s.delta {
		works = append(works, w)
	}
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	for _, w := range works {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

// AddCrossRef durably records a "see also" reference. Duplicates are
// ignored.
func (s *Store) AddCrossRef(ref CrossRef) error {
	if err := ref.From.Validate(); err != nil {
		return err
	}
	if err := ref.To.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.findXRef(ref) >= 0 {
		return nil
	}
	if err := s.logLocked(context.Background(), appendXRef([]byte{opXRefAdd}, ref), 1); err != nil {
		return err
	}
	s.xrefs = append(s.xrefs, ref)
	return s.maybeCompactLocked()
}

// DeleteCrossRef removes a previously recorded reference.
func (s *Store) DeleteCrossRef(ref CrossRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	i := s.findXRef(ref)
	if i < 0 {
		return fmt.Errorf("%w: cross-reference %s → %s", ErrNotFound, ref.From.Display(), ref.To.Display())
	}
	if err := s.logLocked(context.Background(), appendXRef([]byte{opXRefDel}, ref), 1); err != nil {
		return err
	}
	s.xrefs = slices.Delete(s.xrefs, i, i+1)
	return s.maybeCompactLocked()
}

// CrossRefs returns a copy of all recorded references.
func (s *Store) CrossRefs() []CrossRef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]CrossRef(nil), s.xrefs...)
}

func (s *Store) findXRef(ref CrossRef) int {
	for i, x := range s.xrefs {
		if x == ref {
			return i
		}
	}
	return -1
}

// Compact writes a snapshot of the current state and resets the WAL. It
// is a no-op for in-memory stores.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	return s.compactLocked()
}

// Stats describes the store's size on disk and in memory, plus the
// write-pipeline counters.
type Stats struct {
	Works         int
	NextID        model.WorkID
	WALBytes      int64
	SnapshotBytes int64
	InMemory      bool
	// BatchesCommitted counts group commits applied (PutBatch and
	// DeleteBatch calls that succeeded).
	BatchesCommitted int64
	// FsyncsSaved counts WAL commits avoided by batching: a committed
	// batch of N records costs one commit where N one-work batches
	// would pay N.
	FsyncsSaved int64
	// WALSyncs is the number of fsyncs the WAL actually issued. Always
	// zero for in-memory stores; under NoSync appends stop syncing but
	// segment rotation, explicit Sync and Close still count.
	WALSyncs int64
	// Degraded reports the sticky read-only latch: a write-path I/O
	// failure occurred and every write since has been rejected.
	Degraded bool
	// DegradedReason is the I/O error that latched the store, empty
	// while healthy.
	DegradedReason string
	// DegradedWrites counts commits failed or rejected by the latch,
	// the triggering commit included.
	DegradedWrites int64
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Works: len(s.ids), NextID: s.nextID, InMemory: s.dir == "",
		BatchesCommitted: s.batches, FsyncsSaved: s.fsyncsSaved,
		Degraded: s.degraded, DegradedWrites: s.degradedWrites,
	}
	if s.degradedErr != nil {
		st.DegradedReason = s.degradedErr.Error()
	}
	if s.log != nil {
		st.WALBytes = s.log.Size()
		st.WALSyncs = s.log.Stats().Syncs
	}
	if s.dir != "" {
		if fi, err := os.Stat(filepath.Join(s.dir, snapshotFile)); err == nil {
			st.SnapshotBytes = fi.Size()
		}
	}
	return st
}

// Degraded reports whether a write-path I/O failure has latched the
// store read-only, and the error that did. Reads keep working on a
// degraded store; the latch clears only by reopening.
func (s *Store) Degraded() (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.degraded, s.degradedErr
}

// Degrade latches the store read-only with err as the cause, exactly
// as a write-path I/O failure does: for a caller whose follow-up to a
// committed write failed, leaving memory behind the disk. Reopening
// recovers from disk.
func (s *Store) Degrade(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degradeLocked(err)
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// ---- internals (callers hold s.mu) ----

// writableLocked gates every write entry point: closed stores and
// degraded stores reject up front, before any validation or encoding
// work. Rejections count toward the degraded-commit counter.
func (s *Store) writableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.degraded {
		s.degradedWrites++
		return fmt.Errorf("%w (cause: %v)", ErrDegraded, s.degradedErr)
	}
	return nil
}

// degradeLocked latches the store read-only after a write-path I/O
// failure. The triggering commit counts as a degraded write. The latch
// is sticky for the life of the handle; reopening the store recovers
// from disk (snapshot + WAL replay) with a fresh latch.
func (s *Store) degradeLocked(err error) {
	if s.degraded {
		return
	}
	s.degraded = true
	s.degradedErr = err
	s.degradedWrites++
}

// logLocked appends one WAL frame carrying records operations,
// degrading the store if the WAL latched failed. In-memory stores log
// nothing.
func (s *Store) logLocked(ctx context.Context, frame []byte, records int) error {
	if s.log == nil {
		return nil
	}
	if err := s.log.AppendCtx(ctx, frame); err != nil {
		if failed, _ := s.log.Failed(); failed {
			s.degradeLocked(err)
		}
		return err
	}
	s.opsSince += records
	return nil
}

// maybeCompactLocked runs an automatic compaction once enough operations
// have been logged. It must be called after the triggering operation is
// applied, so the snapshot includes it. It always returns nil: the
// triggering operation is already durably committed, so a failed
// automatic compaction must not report it as failed — the failure
// degrades the store (compactLocked latches that) and surfaces through
// Degraded and Stats instead.
func (s *Store) maybeCompactLocked() error {
	if s.log != nil && s.opts.CompactEvery > 0 && s.opsSince >= s.opts.CompactEvery {
		s.compactLocked()
	}
	return nil
}

func appendXRef(dst []byte, ref CrossRef) []byte {
	return model.AppendAuthor(model.AppendAuthor(dst, ref.From), ref.To)
}

func decodeXRef(body *[]byte) (CrossRef, error) {
	var ref CrossRef
	for _, a := range []*model.Author{&ref.From, &ref.To} {
		author, n, err := model.DecodeAuthor(*body)
		if err != nil {
			return CrossRef{}, err
		}
		*a, *body = author, (*body)[n:]
	}
	return ref, nil
}

func (s *Store) applyPut(w *model.Work) {
	s.ids[w.ID] = struct{}{}
	s.delta[w.ID] = w
	if w.ID >= s.nextID {
		s.nextID = w.ID + 1
	}
}

// applyRecord interprets one WAL payload during recovery.
func (s *Store) applyRecord(p []byte, in *model.Interner) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: empty WAL record", ErrCorrupt)
	}
	body := p[1:]
	switch p[0] {
	case opPut, opPutBatch:
		// An old put record holds one work, a batch frame works back to
		// back. Decode the whole frame before applying anything: a batch
		// frame is atomic, so a decode failure must not leave half of it
		// live.
		var batch []*model.Work
		for len(body) > 0 {
			w, consumed, err := model.DecodeWorkInterned(body, in)
			if err != nil {
				return fmt.Errorf("%w: batch work %d: %v", ErrCorrupt, len(batch), err)
			}
			body = body[consumed:]
			batch = append(batch, w)
		}
		for _, w := range batch {
			s.applyPut(w)
		}
		return nil
	case opDelete, opDelBatch:
		var ids []model.WorkID
		for len(body) > 0 {
			id, n := binary.Uvarint(body)
			if n <= 0 {
				return fmt.Errorf("%w: bad delete id", ErrCorrupt)
			}
			body = body[n:]
			ids = append(ids, model.WorkID(id))
		}
		for _, id := range ids {
			delete(s.ids, id)
			delete(s.delta, id)
		}
		return nil
	case opXRefAdd, opXRefDel:
		ref, err := decodeXRef(&body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		switch i := s.findXRef(ref); {
		case p[0] == opXRefAdd && i < 0:
			s.xrefs = append(s.xrefs, ref)
		case p[0] == opXRefDel && i >= 0:
			s.xrefs = slices.Delete(s.xrefs, i, i+1)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown WAL op %d", ErrCorrupt, p[0])
	}
}

// compactLocked writes snapshot.tmp, fsyncs, renames over snapshot.dat
// and resets the WAL, then drops the delta. Any I/O failure degrades the
// store (disk that fails maintenance writes cannot be trusted with
// commits either), the temp file is always cleaned up, and the on-disk
// state stays recoverable: failures before the rename leave the old
// snapshot + full WAL; failures after it leave the new snapshot, over
// which leftover WAL records replay idempotently. Either snapshot holds
// every live record outside the kept delta, so reads stay whole.
func (s *Store) compactLocked() error {
	if s.dir == "" || s.log == nil {
		return nil // in-memory: nothing to compact
	}
	defer s.compactHist.Since(time.Now())
	if err := s.replaceSnapshotLocked(); err != nil {
		s.degradeLocked(err)
		return err
	}
	s.opsSince = 0
	s.delta = make(map[model.WorkID]*model.Work)
	return nil
}

// replaceSnapshotLocked writes and fsyncs snapshot.tmp, renames it over
// snapshot.dat, fsyncs the directory and resets the WAL. The temp file
// never outlives a failure.
func (s *Store) replaceSnapshotLocked() error {
	tmp := filepath.Join(s.dir, snapshotTmp)
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	err = s.writeSnapshot(f)
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("storage: compact sync: %w", err)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("storage: compact close: %w", cerr)
	}
	if err == nil {
		if err = s.fs.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
			err = fmt.Errorf("storage: compact rename: %w", err)
		}
	}
	if err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.syncDirLocked(); err != nil {
		return err
	}
	return s.log.Reset()
}

// Snapshot layout: magic, then a body of
//
//	uvarint nextID
//	uvarint work count, then that many work encodings
//	uvarint cross-ref count, then that many (from, to) author pairs
//
// followed by a uint32 CRC-32C of the body.

// writeSnapshot streams the current state to w: the magic, then the
// body (the old snapshot's live records copied byte for byte, then the
// delta encoded) through a buffer, then the body's CRC.
func (s *Store) writeSnapshot(w io.Writer) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return fmt.Errorf("storage: snapshot write: %w", err)
	}
	bw := bufio.NewWriterSize(w, 256<<10)
	crc := crc32.New(castagnoli)
	body := io.MultiWriter(bw, crc)
	buf := binary.AppendUvarint(nil, uint64(s.nextID))
	buf = binary.AppendUvarint(buf, uint64(len(s.ids)))
	body.Write(buf)
	// bufio keeps the first write error and Flush returns it.
	if err := s.liveSnapshotLocked(func(rec []byte) error { body.Write(rec); return nil }); err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	for _, work := range s.delta {
		buf = model.AppendWork(buf[:0], work)
		body.Write(buf)
	}
	buf = binary.AppendUvarint(buf[:0], uint64(len(s.xrefs)))
	for _, ref := range s.xrefs {
		buf = appendXRef(buf, ref)
	}
	body.Write(buf)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("storage: snapshot write: %w", err)
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32())); err != nil {
		return fmt.Errorf("storage: snapshot write: %w", err)
	}
	return nil
}

// loadSnapshot takes the snapshot's IDs, next-ID counter and
// cross-references. It decodes no work: the records stay on disk.
// Nothing is kept unless the whole file checks out.
func (s *Store) loadSnapshot() error {
	ids := make(map[model.WorkID]struct{})
	next := s.nextID
	snapNext, xrefs, err := scanSnapshot(s.dir, func(id model.WorkID, _ []byte) error {
		if _, dup := ids[id]; dup {
			return fmt.Errorf("%w: snapshot holds work %d twice", ErrCorrupt, id)
		}
		ids[id] = struct{}{}
		// Never hand out an ID that is already taken, even from a
		// snapshot written before an explicit-ID put raised nextID.
		next = max(next, id+1)
		return nil
	})
	if err != nil {
		return err
	}
	s.ids, s.nextID, s.xrefs = ids, max(next, snapNext), xrefs
	return nil
}

// liveSnapshotLocked calls fn with the bytes of every live snapshot
// record: one whose ID is in ids and not in delta. Those and the delta
// must make up every live work, or the snapshot is corrupt. The bytes
// are valid only until fn returns, and fn's first error stops the scan.
func (s *Store) liveSnapshotLocked(fn func(rec []byte) error) error {
	live := 0
	if s.dir != "" {
		_, _, err := scanSnapshot(s.dir, func(id model.WorkID, rec []byte) error {
			_, ok := s.ids[id]
			if _, put := s.delta[id]; !ok || put {
				return nil
			}
			live++
			return fn(rec)
		})
		if err != nil {
			return err
		}
	}
	if live+len(s.delta) != len(s.ids) {
		return fmt.Errorf("%w: snapshot holds %d of the %d live works outside the delta", ErrCorrupt, live, len(s.ids)-len(s.delta))
	}
	return nil
}

// scanSnapshot streams dir's snapshot through a bufio.Reader and calls
// rec with each work record's ID and encoded bytes, in file order,
// without decoding the work; the bytes are valid only until rec
// returns. It returns the snapshot's next-ID counter and its
// cross-references. A missing snapshot is an empty one. The file is
// never read whole, so its checksum, kept running over the body, is
// verified last: rec sees records before the file is known to be
// intact, and callers keep nothing from a scan that fails.
func scanSnapshot(dir string, rec func(id model.WorkID, b []byte) error) (model.WorkID, []CrossRef, error) {
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("storage: load snapshot: %w", err)
	}
	defer f.Close()
	sr := snapReader{br: bufio.NewReaderSize(f, snapWindow)}
	magic, err := sr.next(func(p []byte) (int, error) {
		if len(p) < len(snapMagic) {
			return 0, errShortItem
		}
		return len(snapMagic), nil
	})
	if err != nil || string(magic) != snapMagic {
		return 0, nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	sr.crc = 0 // the checksum covers the body only
	nextID, err := sr.uvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: snapshot nextID", ErrCorrupt)
	}
	count, err := sr.uvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: snapshot count", ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		var id model.WorkID
		b, err := sr.next(func(p []byte) (n int, err error) {
			id, n, err = model.ScanWork(p)
			return n, err
		})
		if err != nil {
			return 0, nil, fmt.Errorf("%w: snapshot work %d: %v", ErrCorrupt, i, err)
		}
		if err := rec(id, b); err != nil {
			return 0, nil, err
		}
	}
	xrefCount, err := sr.uvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: snapshot cross-ref count", ErrCorrupt)
	}
	var xrefs []CrossRef
	for i := uint64(0); i < xrefCount; i++ {
		var ref CrossRef
		if _, err := sr.next(func(p []byte) (int, error) {
			rest := p
			var err error
			ref, err = decodeXRef(&rest)
			return len(p) - len(rest), err
		}); err != nil {
			return 0, nil, fmt.Errorf("%w: snapshot cross-ref %d: %v", ErrCorrupt, i, err)
		}
		xrefs = append(xrefs, ref)
	}
	tail, err := io.ReadAll(sr.br)
	if err != nil {
		return 0, nil, fmt.Errorf("storage: load snapshot: %w", err)
	}
	if len(tail) != 4 {
		return 0, nil, fmt.Errorf("%w: %d snapshot bytes after the body, want a 4-byte checksum", ErrCorrupt, len(tail))
	}
	if binary.LittleEndian.Uint32(tail) != sr.crc {
		return 0, nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	return model.WorkID(nextID), xrefs, nil
}

// snapWindow is the initial buffer size of a snapshot scan.
const snapWindow = 64 << 10

// snapReader feeds a snapshot to its parsers through a bufio.Reader,
// folding every byte they consume into a running CRC-32C.
type snapReader struct {
	br  *bufio.Reader
	crc uint32
}

// next consumes the item at the front of the stream: parse returns its
// length, or an error when the bytes it is shown hold no whole item. It
// is shown the buffered bytes, then a full buffer; an item longer than
// the buffer doubles it. An error with the rest of the file in view is
// final. The returned bytes are valid until the next call.
func (s *snapReader) next(parse func(p []byte) (int, error)) ([]byte, error) {
	want := s.br.Buffered()
	for {
		p, perr := s.br.Peek(want)
		n, err := parse(p)
		if err == nil {
			s.crc = crc32.Update(s.crc, castagnoli, p[:n])
			s.br.Discard(n)
			return p[:n], nil
		}
		switch {
		case perr == io.EOF:
			return nil, err
		case perr != nil:
			return nil, fmt.Errorf("storage: load snapshot: %w", perr)
		case want == s.br.Size():
			// A larger reader drains the old one's buffer first.
			s.br = bufio.NewReaderSize(s.br, 2*want)
		}
		want = s.br.Size()
	}
}

// uvarint consumes one uvarint.
func (s *snapReader) uvarint() (uint64, error) {
	var v uint64
	_, err := s.next(func(p []byte) (int, error) {
		var n int
		if v, n = binary.Uvarint(p); n <= 0 {
			return 0, errShortItem
		}
		return n, nil
	})
	return v, err
}

// errShortItem reports that the bytes shown end inside an item.
var errShortItem = errors.New("truncated")

func (s *Store) syncDirLocked() error {
	d, err := s.fs.Open(s.dir)
	if err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	// Even the close is checked: the degrade-on-any-failure policy has
	// no carve-outs, and a kernel that fails close(dirfd) is not one to
	// keep writing through.
	if err := d.Close(); err != nil {
		return fmt.Errorf("storage: sync dir close: %w", err)
	}
	return nil
}
