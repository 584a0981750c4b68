// Package authorindex is a bibliographic author-index engine: it stores
// works (title, authors, citation), maintains an alphabetized author
// index with publication-grade collation, answers author/title/citation
// queries, and renders the index in the classic printed formats.
//
// It is the system behind proceedings front matter such as a conference
// "Author Index": the machinery that a publisher runs to produce and
// serve that artifact. The engine is crash-safe (write-ahead log +
// snapshots), stdlib-only and safe for concurrent use.
//
// Quick start:
//
//	ix, err := authorindex.Open("", nil) // in-memory; pass a dir for durability
//	if err != nil { ... }
//	defer ix.Close()
//
//	id, err := ix.Add(authorindex.Work{
//		Title:    "Unlocking the Fire",
//		Authors:  []authorindex.Author{{Family: "Lewin", Given: "Jeff L."}},
//		Citation: authorindex.Citation{Volume: 94, Page: 563, Year: 1992},
//	})
//
//	entry, ok := ix.Author("Lewin, Jeff L.")
//	results := ix.Search("coalbed methane", 10)
//	err = ix.Render(os.Stdout, authorindex.RenderOptions{Format: authorindex.Text})
package authorindex

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/citeparse"
	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/dedupe"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Re-exported record types. These aliases are the public data model; see
// the internal/model package for field documentation.
type (
	// Work is one indexed publication.
	Work = model.Work
	// Author is a structured author name.
	Author = model.Author
	// Citation is a volume:page (year) locator.
	Citation = model.Citation
	// WorkID identifies a stored work.
	WorkID = model.WorkID
	// Kind classifies a work (article, student note, ...).
	Kind = model.Kind
	// Volume labels a bound volume for rendering.
	Volume = model.Volume
	// Entry is one author heading with its works and cross-references.
	Entry = core.Entry
	// Section is one letter group of the printed index.
	Section = core.Section
	// RenderOptions configures Render; see the render package fields.
	RenderOptions = render.Options
	// Format selects a render encoding.
	Format = render.Format
	// CollationOptions tunes alphabetization; see DefaultCollation.
	CollationOptions = collate.Options
	// CorpusConfig parameterizes GenerateCorpus.
	CorpusConfig = gen.Config
	// IngestResult reports what an import recovered.
	IngestResult = ingest.Result
	// SubjectCount pairs a subject heading with its work count.
	SubjectCount = query.SubjectCount
	// Suggestion is one candidate duplicate-heading pair.
	Suggestion = dedupe.Suggestion
	// AuthorMetrics is one heading's bibliometrics snapshot.
	AuthorMetrics = metrics.AuthorMetrics
	// MetricsSummary aggregates corpus-level collaboration statistics.
	MetricsSummary = metrics.Summary
	// Collaborator pairs a co-author heading with shared-work count.
	Collaborator = metrics.Collaborator
	// Scheme selects how authorship credit is split by position.
	Scheme = metrics.Scheme
	// RankKey selects the statistic TopAuthors ranks by.
	RankKey = metrics.RankKey
	// GraphSummary aggregates coauthorship-network statistics.
	GraphSummary = graph.Summary
	// CentralAuthor pairs a heading with its network-centrality score.
	CentralAuthor = graph.CentralAuthor
	// Neighbor pairs a co-author heading with the shared-work count.
	Neighbor = graph.Neighbor
)

// Duplicate-suggestion reasons, strongest first.
const (
	SpellingVariant = dedupe.SpellingVariant
	StudentVariant  = dedupe.StudentVariant
	InitialsVariant = dedupe.InitialsVariant
)

// Work kinds.
const (
	KindArticle     = model.KindArticle
	KindStudentNote = model.KindStudentNote
	KindEssay       = model.KindEssay
	KindBookReview  = model.KindBookReview
	KindComment     = model.KindComment
	KindCaseNote    = model.KindCaseNote
	KindTribute     = model.KindTribute
)

// Render formats.
const (
	Text     = render.Text
	TSV      = render.TSV
	Markdown = render.Markdown
	CSV      = render.CSV
	JSON     = render.JSON
	HTMLPage = render.HTMLPage
)

// Credit-weighting schemes for author metrics.
const (
	SchemeHarmonic   = metrics.Harmonic
	SchemeArithmetic = metrics.Arithmetic
	SchemeGeometric  = metrics.Geometric
	SchemeFractional = metrics.Fractional
)

// Ranking keys for TopAuthors.
const (
	ByWorks         = metrics.ByWorks
	ByWeighted      = metrics.ByWeighted
	ByFractional    = metrics.ByFractional
	ByHIndex        = metrics.ByHIndex
	ByCollaborators = metrics.ByCollaborators
	ByFirstAuthored = metrics.ByFirstAuthored
	// ByCentrality ranks by coauthorship-network PageRank.
	ByCentrality = metrics.ByCentrality
)

// DefaultDamping is the PageRank damping factor used when Options
// leaves GraphDamping zero.
const DefaultDamping = graph.DefaultDamping

// MaxLimit bounds every caller-supplied result limit; see ClampLimit.
const MaxLimit = query.MaxLimit

// ClampLimit normalizes a caller-supplied result limit, shared by the
// CLI and HTTP layers: negative values fall back to def, zero ("all")
// and values above MaxLimit clamp to MaxLimit.
func ClampLimit(n, def int) int { return query.ClampLimit(n, def) }

// ParseScheme converts a scheme name ("harmonic", "arithmetic",
// "geometric", "fractional") into a Scheme.
func ParseScheme(s string) (Scheme, error) { return metrics.ParseScheme(s) }

// ParseRankKey converts a rank-key name ("works", "weighted",
// "fractional", "h", "collabs", "first", "central") into a RankKey.
func ParseRankKey(s string) (RankKey, error) { return metrics.ParseRankKey(s) }

// Errors re-exported from the storage layer.
var (
	// ErrNotFound reports a missing work or cross-reference.
	ErrNotFound = storage.ErrNotFound
	// ErrClosed reports use after Close.
	ErrClosed = storage.ErrClosed
	// ErrDegraded reports a write rejected because a write-path I/O
	// failure has latched the index read-only. Reads keep serving the
	// last published snapshots; reopening the index recovers from disk
	// and clears the latch. See Degraded for the cause.
	ErrDegraded = storage.ErrDegraded
)

// DefaultCollation is the conventional index setup: word-by-word
// alphabetization with nobiliary particles grouped (Van Tol files under V).
func DefaultCollation() CollationOptions { return collate.Default() }

// ParseAuthor converts an index-order heading string ("Fisher, John W.,
// II" or "Abdalla, Tarek F.*") into a structured Author.
func ParseAuthor(s string) (Author, error) { return names.Parse(s) }

// FormatAuthor renders an author in canonical index order.
func FormatAuthor(a Author) string { return a.Display() }

// ParseCitation reads "95:1365 (1993)" into a Citation.
func ParseCitation(s string) (Citation, error) { return citeparse.Parse(s) }

// ParseFormat converts a format name ("text", "tsv", "markdown", "csv",
// "json") into a Format.
func ParseFormat(s string) (Format, error) { return render.ParseFormat(s) }

// ParseKind converts a kind name (as produced by Kind.String, e.g.
// "article" or "student-note") back into a Kind.
func ParseKind(s string) (Kind, error) { return model.ParseKind(s) }

// GenerateCorpus produces a deterministic synthetic corpus; see
// CorpusConfig for the knobs. Useful for examples, benchmarks and tests.
func GenerateCorpus(cfg CorpusConfig) []*Work { return gen.Generate(cfg) }

// Options configures Open.
type Options struct {
	// Collation tunes alphabetization. The zero value means
	// DefaultCollation(). Collation is fixed for the life of the on-disk
	// index; reopen with the same options.
	Collation *CollationOptions
	// NoSync skips fsync on each logged operation (faster, loses the
	// most recent writes on power failure, never corrupts).
	NoSync bool
	// CompactEvery auto-compacts after this many logged operations;
	// zero disables automatic compaction.
	CompactEvery int
	// MetricsScheme selects the position-weighting scheme for author
	// credit. The zero value is SchemeHarmonic.
	MetricsScheme Scheme
	// GraphDamping is the PageRank damping factor for network
	// centrality. Zero means DefaultDamping (0.85); values outside
	// (0, 1) are rejected by Open.
	GraphDamping float64
	// IngestBatchSize is the chunk size ImportTSV and ImportCSV feed to
	// AddBatch: each chunk is one group commit (one WAL append, one
	// fsync). Zero means the default of 256; negative values are
	// rejected by Open.
	IngestBatchSize int
	// Shards is validated and then ignored: Open rejects values outside
	// [0, MaxShards], and every accepted value opens the same single
	// engine (Stats.Shards reports 1).
	//
	// Deprecated: the index is one engine behind one writer mutex; a
	// measured 4-shard layout beat 1 shard on no end-to-end metric.
	Shards int
	// FS is the filesystem seam the durable write path (WAL appends,
	// snapshot compaction) goes through. Nil means the real filesystem.
	// Tests inject a fault.Injector here to exercise the degraded-mode
	// policy; production leaves it nil.
	FS fault.FS
}

// MaxShards bounds Options.Shards, which Open still validates.
const MaxShards = 256

// DefaultIngestBatchSize is the import chunk size used when Options
// leaves IngestBatchSize zero.
const DefaultIngestBatchSize = 256

// Stats summarizes index contents and storage footprint.
type Stats struct {
	Works           int    // distinct works
	Authors         int    // distinct headings
	Postings        int    // author–work pairs
	StudentNotes    int    // postings under student headings
	CrossRefs       int    // see-also references
	Terms           int    // distinct title-search terms
	GraphNodes      int    // authors in the coauthorship network
	GraphEdges      int    // distinct collaborating pairs
	GraphComponents int    // connected components (isolated authors included)
	QueriesServed   uint64 // ordered read queries answered since open
	WorksCloned     uint64 // result works deep-copied for callers
	PostingsScanned uint64 // bytes of posting entries examined by queries

	// BatchesCommitted counts group commits applied: every Add,
	// AddBatch, Delete and DeleteBatch, and each import chunk (a single
	// Add or Delete is a one-work group commit).
	BatchesCommitted int64
	// FsyncsSaved counts WAL commits avoided by batching: a committed
	// batch of N works costs one commit where N single Adds pay N.
	FsyncsSaved int64
	// WALSyncs is the number of fsyncs the WAL actually issued. Always
	// zero in-memory; under NoSync appends stop syncing but segment
	// rotation, explicit Sync and Close still count.
	WALSyncs int64

	// Degraded reports the sticky read-only latch: a write-path I/O
	// failure occurred and every write since fails with ErrDegraded.
	Degraded bool
	// DegradedReason is the I/O error that latched the index, empty
	// while healthy.
	DegradedReason string
	// DegradedWrites counts commits failed or rejected by the latch,
	// the triggering commit included.
	DegradedWrites int64

	WALBytes      int64  // current write-ahead-log size
	SnapshotBytes int64  // last snapshot size
	InMemory      bool   // true when opened without a directory
	Collation     string // collation scheme name
	Shards        int    // always 1: the index is one engine
}

// Index is an open author-index engine. All methods are safe for
// concurrent use: writers serialize on one mutex and commit by
// publishing a fresh copy-on-write snapshot of the engine in a new
// root, and reads load the current root and run entirely lock-free
// (see snapshot.go), so a slow reader never stalls a writer and a write
// burst never convoys readers. A read sees one committed state: a batch
// is visible to it entirely or not at all (see AddBatch).
type Index struct {
	store       *storage.Store
	coll        CollationOptions
	ingestBatch int

	// mu serializes writers: every commit, and the operations that must
	// exclude them (Verify, Compact, Close, tracker rebuilds), hold it.
	// Its order is the one commit order of store and engine.
	mu sync.Mutex
	// root is the current snapshot; every read is one load of it.
	root atomic.Pointer[root]
	// alive counts roots not yet collected (see EpochsAlive). It is
	// allocated apart from the Index; see sentinel.
	alive *atomic.Int64

	// The index's own latency histograms, which RegisterMetrics files:
	// one per public operation, the copy-on-write turnover each write
	// pays (clone + path-copied mutation + pointer swap), the wait for
	// mu, and how long each holder keeps it (a commit's inline
	// compaction counts under write).
	ops      [len(opNames)]obs.Histogram
	swap     obs.Histogram
	lockWait obs.Histogram
	hold     struct{ write, seeAlso, rebuild, compact, verify, close obs.Histogram }
}

// Public operations timed into authdex_op_duration_seconds{op=...}.
type op int

const (
	opSearch op = iota
	opYearRange
	opVolume
	opBySubject
	opGet
	opAuthors
	opAuthorsPage
	opRank
	opCentral
	opAdd
	opAddBatch
	opDelete
	opDeleteBatch
	opRender
	opRenderTitles
	opRenderSubjects
	opVerify
	opOpen
)

var opNames = [...]string{
	"search", "year_range", "volume", "by_subject", "get", "authors",
	"authors_page", "rank", "central", "add", "add_batch", "delete",
	"delete_batch", "render", "render_titles", "render_subjects", "verify",
	"open",
}

// RegisterMetrics files the index's telemetry on r: its own, its
// store's, its WAL's and its engine's latency histograms, and callbacks
// promoting the Stats counters and corpus-size gauges. Open registers
// nothing, anywhere. Each histogram has one owner, so every registry
// shows the same samples, those recorded before the call included. A
// second index registered on r replaces its series.
func (ix *Index) RegisterMetrics(r *obs.Registry) {
	for i := range ix.ops {
		r.AddHistogram("authdex_op_duration_seconds",
			"Latency of public index operations.", &ix.ops[i], "op", opNames[i])
	}
	r.AddHistogram("authdex_snapshot_swap_duration_seconds",
		"Copy-on-write snapshot turnover latency per committed write (engine clone, path-copied mutation, pointer swap).", &ix.swap)
	r.AddHistogram("authdex_lock_wait_duration_seconds",
		"Every wait for the index's writer mutex: writes, see-also edits, metric rebuilds, compaction, verify, close.", &ix.lockWait)
	hold := &ix.hold
	for holder, h := range map[string]*obs.Histogram{"write": &hold.write, "see_also": &hold.seeAlso,
		"rebuild": &hold.rebuild, "compact": &hold.compact, "verify": &hold.verify, "close": &hold.close} {
		r.AddHistogram("authdex_lock_hold_duration_seconds", "Time the index's writer mutex is held, by holder.", h, "holder", holder)
	}
	ix.store.RegisterMetrics(r)
	ix.engine().RegisterMetrics(r)

	// Each callback reads only its own source — the store counters, the
	// query counters or the engine's counts — the same reads Stats
	// makes, and none walks the headings.
	queries := func() query.QueryStats { return ix.engine().QueryStats() }
	store := ix.store.Stats
	r.CounterFunc("authdex_queries_served_total", "Ordered read queries answered since open.",
		func() float64 { return float64(queries().Queries) })
	r.CounterFunc("authdex_works_cloned_total", "Result works deep-copied for callers.",
		func() float64 { return float64(queries().WorksCloned) })
	r.CounterFunc("authdex_postings_scanned_total", "Bytes of posting entries examined by queries.",
		func() float64 { return float64(queries().PostingsBytes) })
	r.CounterFunc("authdex_batches_committed_total", "Group commits applied.",
		func() float64 { return float64(store().BatchesCommitted) })
	r.CounterFunc("authdex_fsyncs_saved_total", "WAL commits avoided by group commit.",
		func() float64 { return float64(store().FsyncsSaved) })
	r.CounterFunc("authdex_degraded_commits_total", "Commits failed or rejected by the degraded latch.",
		func() float64 { return float64(store().DegradedWrites) })
	r.GaugeFunc("authdex_degraded", "1 while the index is latched read-only after a write-path I/O failure.",
		func() float64 {
			if store().Degraded {
				return 1
			}
			return 0
		})
	r.GaugeFunc("authdex_works", "Distinct works stored.",
		func() float64 { return float64(ix.engine().Len()) })
	r.GaugeFunc("authdex_authors", "Distinct author headings.",
		func() float64 { return float64(ix.engine().Index().Len()) })
	r.GaugeFunc("authdex_postings", "Author-work pairs indexed.",
		func() float64 { return float64(ix.engine().Index().Stats().Postings) })
	r.GaugeFunc("authdex_wal_bytes", "Current write-ahead-log size.",
		func() float64 { return float64(store().WALBytes) })
	r.GaugeFunc("authdex_snapshot_bytes", "Last snapshot size.",
		func() float64 { return float64(store().SnapshotBytes) })
	r.GaugeFunc("authdex_epochs_alive",
		"Engine snapshot roots not yet collected; 1 when quiescent.",
		func() float64 { return float64(ix.EpochsAlive()) })
}

// Open opens (creating if necessary) an index rooted at dir. An empty
// dir gives a volatile in-memory index. opts may be nil for defaults.
func Open(dir string, opts *Options) (*Index, error) {
	ix := &Index{alive: new(atomic.Int64)}
	_, tm := trace.Time(context.Background(), "facade.open", &ix.ops[opOpen])
	var o Options
	if opts != nil {
		o = *opts
	}
	coll := collate.Default()
	if o.Collation != nil {
		coll = *o.Collation
	}
	if !o.MetricsScheme.Valid() {
		return nil, fmt.Errorf("authorindex: invalid metrics scheme %d", o.MetricsScheme)
	}
	// Written to reject NaN too: NaN fails every comparison, so test
	// for the valid range and negate.
	if o.GraphDamping != 0 && !(o.GraphDamping > 0 && o.GraphDamping < 1) {
		return nil, fmt.Errorf("authorindex: graph damping %g outside (0, 1)", o.GraphDamping)
	}
	if o.IngestBatchSize < 0 {
		return nil, fmt.Errorf("authorindex: negative ingest batch size %d", o.IngestBatchSize)
	}
	if o.IngestBatchSize == 0 {
		o.IngestBatchSize = DefaultIngestBatchSize
	}
	if o.Shards < 0 || o.Shards > MaxShards {
		return nil, fmt.Errorf("authorindex: shard count %d outside [0, %d]", o.Shards, MaxShards)
	}
	st, err := storage.Open(dir, storage.Options{
		WAL:          wal.Options{NoSync: o.NoSync},
		CompactEvery: o.CompactEvery,
		FS:           o.FS,
	})
	if err != nil {
		return nil, err
	}
	eng := query.NewWithScheme(coll, o.MetricsScheme)
	if o.GraphDamping != 0 {
		eng.Graph().SetDamping(o.GraphDamping)
	}
	// Cold start is a bulk load, not a replay: the store decodes the
	// corpus once, the engine keeps it as the one in-RAM copy and builds
	// its indexes bottom-up, and the tracker rebuilds beside the load.
	works := make([]*model.Work, 0, st.Len())
	if err := st.ForEach(func(w *model.Work) error { works = append(works, w); return nil }); err != nil {
		st.Close()
		return nil, fmt.Errorf("authorindex: read store: %w", err)
	}
	if err := eng.LoadAll(works); err != nil {
		st.Close()
		return nil, fmt.Errorf("authorindex: rebuild from store: %w", err)
	}
	if refs := st.CrossRefs(); len(refs) > 0 {
		batch := make([]core.SeeAlsoRef, len(refs))
		for i, ref := range refs {
			batch[i] = core.SeeAlsoRef{From: ref.From, To: ref.To}
		}
		if err := eng.Index().AddSeeAlsoBatch(batch); err != nil {
			st.Close()
			return nil, fmt.Errorf("authorindex: restore cross-refs: %w", err)
		}
	}
	ix.store, ix.coll, ix.ingestBatch = st, coll, o.IngestBatchSize
	ix.publish(time.Time{}, eng) // the first root replaces none: no swap
	tm.End()
	return ix, nil
}

// Add validates and stores a work, files it in every index, and returns
// its assigned ID: an AddBatch of one work, so it is one group commit
// and counts in Stats.BatchesCommitted. A zero w.ID gets the next free
// ID; a non-zero ID inserts or replaces. An invalid work or a WAL error
// leaves the index unchanged.
func (ix *Index) Add(w Work) (WorkID, error) {
	return ix.AddCtx(context.Background(), w)
}

// AddBatch validates and stores N works under a single lock acquisition
// and a single group commit: one WAL append, one fsync (under the
// default durable configuration) for the whole batch, then one
// amortized indexing pass. IDs are assigned exactly as N sequential
// Adds would assign them and returned in input order.
//
// AddBatch copies the works once and never touches the caller's: they
// may be reused or modified as soon as it returns. Under the writer
// mutex it commits the copies to the store, which validates them and
// assigns their IDs before the WAL append, then indexes the same
// copies and publishes. Validation is the only check a work can fail,
// and it runs before anything is written, so an invalid work anywhere
// in the batch or a WAL error leaves storage, indexes, metrics and the
// coauthorship graph byte-identical to their pre-batch state.
// Visibility is atomic: a committed batch is published in one snapshot
// root, so a concurrent reader sees all of the batch or none of it, and
// every read started after AddBatch returns sees the whole batch.
func (ix *Index) AddBatch(works []Work) ([]WorkID, error) {
	return ix.AddBatchCtx(context.Background(), works)
}

// DeleteBatch removes N works everywhere under a single lock
// acquisition and a single group commit. Every ID must exist; a missing
// ID or a WAL error leaves the index unchanged.
func (ix *Index) DeleteBatch(ids []WorkID) error {
	return ix.DeleteBatchCtx(context.Background(), ids)
}

// Delete removes a work everywhere: a DeleteBatch of one ID, so it is
// one group commit. ErrNotFound if the ID is unknown.
func (ix *Index) Delete(id WorkID) error {
	return ix.DeleteCtx(context.Background(), id)
}

// Get returns a copy of the stored work. Indexed works are immutable,
// so the reference read from the snapshot stays valid even across a
// concurrent delete.
func (ix *Index) Get(id WorkID) (*Work, bool) {
	return ix.GetCtx(context.Background(), id)
}

// Len returns the number of stored works.
func (ix *Index) Len() int { return ix.engine().Len() }

// Author looks up one heading by its index-order string.
func (ix *Index) Author(heading string) (*Entry, bool) {
	e, ok := ix.engine().AuthorExact(heading)
	if !ok {
		return nil, false
	}
	return e.Clone(), true
}

// Authors returns up to limit headings starting with prefix, in print
// order (limit <= 0: all).
func (ix *Index) Authors(prefix string, limit int) []*Entry {
	return ix.AuthorsCtx(context.Background(), prefix, limit)
}

// AuthorsPage returns up to limit headings strictly after `after` in
// print order (empty after: from the start). Feed the last entry's
// heading back in as the next cursor to page through the whole index.
func (ix *Index) AuthorsPage(after string, limit int) []*Entry {
	return ix.AuthorsPageCtx(context.Background(), after, limit)
}

// Search evaluates a boolean title query: space-separated terms AND,
// "a or b" OR, "-term" NOT, "term*" prefix. Results are in citation
// order, capped at limit (<=0: no cap).
//
// Search and the other ordered reads (YearRange, VolumeWorks,
// BySubject) take no lock at all: they load the current snapshot root,
// collect live references — already ordered by the engine's
// precomputed citation keys and truncated to limit — and deep-copy the
// survivors, so neither a writer nor another reader is ever stalled by
// a read.
func (ix *Index) Search(q string, limit int) []*Work {
	return ix.SearchCtx(context.Background(), q, limit)
}

// YearRange returns works published in [from, to], citation order.
func (ix *Index) YearRange(from, to, limit int) []*Work {
	return ix.YearRangeCtx(context.Background(), from, to, limit)
}

// VolumeWorks returns every work in the given volume, citation order.
func (ix *Index) VolumeWorks(v, limit int) []*Work {
	return ix.VolumeWorksCtx(context.Background(), v, limit)
}

// Subjects returns every subject heading in collation order with its
// work count.
func (ix *Index) Subjects() []SubjectCount { return ix.engine().Subjects() }

// BySubject returns the works filed under a subject heading, matched
// case- and diacritic-insensitively, in citation order.
func (ix *Index) BySubject(subject string, limit int) []*Work {
	return ix.BySubjectCtx(context.Background(), subject, limit)
}

// RenderSubjectIndex writes the subject-index artifact: works grouped
// under their subject headings. Text, TSV and Markdown formats are
// supported. It renders one snapshot root without a lock, and groups
// that root's works once: every later subject index of the same root
// reuses the groups, and the first after a write groups afresh.
func (ix *Index) RenderSubjectIndex(w io.Writer, opts RenderOptions) error {
	return ix.RenderSubjectIndexCtx(context.Background(), w, opts)
}

// AddSeeAlso durably records a cross-reference between two headings
// given in index-order form, e.g. ("Mountney, Marion", "Crain-Mountney,
// Marion").
func (ix *Index) AddSeeAlso(from, to string) error {
	fa, err := names.Parse(from)
	if err != nil {
		return fmt.Errorf("authorindex: from heading: %w", err)
	}
	ta, err := names.Parse(to)
	if err != nil {
		return fmt.Errorf("authorindex: to heading: %w", err)
	}
	_, hold := ix.lockTraced(context.Background(), &ix.hold.seeAlso)
	defer hold.End()
	defer ix.mu.Unlock()
	// Mutate a clone, commit to the store, then publish: a store error
	// discards the clone, so engine and store can no longer diverge the
	// way the old engine-first order allowed.
	start := time.Now()
	eng := ix.engine().Clone()
	if err := eng.Index().AddSeeAlso(fa, ta); err != nil {
		return err
	}
	if err := ix.store.AddCrossRef(storage.CrossRef{From: fa, To: ta}); err != nil {
		return err
	}
	ix.publish(start, eng)
	return nil
}

// AuthorMetrics returns the bibliometrics snapshot for one heading:
// work counts by kind and year, fractional and position-weighted
// credit, productivity h-index and collaboration degree.
func (ix *Index) AuthorMetrics(heading string) (m AuthorMetrics, ok bool) {
	a, err := names.Parse(heading)
	if err != nil {
		return AuthorMetrics{}, false
	}
	ix.engine().ReadTrackers(func(met *metrics.Engine) { m, ok = met.Author(a.Display()) })
	return m, ok
}

// TopAuthors returns up to limit author snapshots ranked by the given
// key, best first. The limit is clamped like every query limit.
func (ix *Index) TopAuthors(by RankKey, limit int) []AuthorMetrics {
	return ix.TopAuthorsCtx(context.Background(), by, limit)
}

// MetricsSummary returns corpus-level collaboration statistics.
func (ix *Index) MetricsSummary() (s MetricsSummary) {
	ix.engine().ReadTrackers(func(met *metrics.Engine) { s = met.Summary() })
	return s
}

// SetMetricsScheme swaps the credit-weighting scheme, rebuilding the
// tracker — graph included — from the corpus (O(corpus), a
// recovery-grade path). Swapping to the scheme in effect is a no-op.
func (ix *Index) SetMetricsScheme(s Scheme) error {
	if !s.Valid() {
		return fmt.Errorf("authorindex: invalid metrics scheme %d", s)
	}
	ix.rebuildTrackers(&s)
	return nil
}

// RebuildMetrics discards the incrementally maintained tracker state
// and recomputes it from the indexed corpus — the recovery path when
// incremental state is suspect.
func (ix *Index) RebuildMetrics() { ix.rebuildTrackers(nil) }

// rebuildTrackers builds a fresh tracker over the whole corpus under
// scheme (nil: the current one) and the current damping factor, then
// clones the engine, points the clone at it and publishes it. The
// rebuild excludes every writer, builds off to the side, and concurrent
// readers never observe a half-built tracker. PageRank recomputes
// lazily on the fresh graph.
func (ix *Index) rebuildTrackers(scheme *Scheme) {
	_, hold := ix.lockTraced(context.Background(), &ix.hold.rebuild)
	defer hold.End()
	defer ix.mu.Unlock()
	// Every tracker writer holds the mutex, so holding it makes reading
	// the current tracker safe.
	head := ix.engine()
	cur := head.Metrics()
	s := cur.Weighting()
	if scheme != nil {
		if *scheme == s {
			return
		}
		s = *scheme
	}
	fresh := metrics.NewEngine(s)
	fresh.Graph().SetDamping(cur.Graph().Damping())
	fresh.Rebuild(head.AllWorksView())
	start := time.Now()
	eng := head.Clone()
	eng.ReplaceTrackers(fresh)
	ix.publish(start, eng)
}

// CollaborationPath returns the shortest coauthorship chain between two
// headings given in index-order form ("Lewin, Jeff L."), endpoints
// included — the Erdős-style distance is len(path)-1. It reports false
// when either heading is unknown or no chain of shared works connects
// them.
func (ix *Index) CollaborationPath(from, to string) (path []string, ok bool) {
	fa, err := names.Parse(from)
	if err != nil {
		return nil, false
	}
	ta, err := names.Parse(to)
	if err != nil {
		return nil, false
	}
	ix.engine().ReadTrackers(func(met *metrics.Engine) { path, ok = met.Graph().Path(fa.Display(), ta.Display()) })
	return path, ok
}

// Centrality returns a heading's PageRank score in the coauthorship
// network; scores across all authors sum to 1.
func (ix *Index) Centrality(heading string) (c float64, ok bool) {
	a, err := names.Parse(heading)
	if err != nil {
		return 0, false
	}
	ix.engine().ReadTrackers(func(met *metrics.Engine) { c, ok = met.Graph().Centrality(a.Display()) })
	return c, ok
}

// Collaborators returns a heading's co-authors with shared-work counts,
// heaviest first.
func (ix *Index) Collaborators(heading string) (out []Neighbor) {
	a, err := names.Parse(heading)
	if err != nil {
		return nil
	}
	ix.engine().ReadTrackers(func(met *metrics.Engine) { out = met.Graph().Neighbors(a.Display()) })
	return out
}

// GraphSummary returns coauthorship-network aggregates: node, edge and
// component counts, the largest component, density, and the most
// central authors under the configured damping factor.
func (ix *Index) GraphSummary() (s GraphSummary) {
	ix.engine().ReadTrackers(func(met *metrics.Engine) { s = met.Graph().Summarize() })
	return s
}

// TopCentral returns up to limit authors by network centrality, best
// first. The limit is clamped like every query limit.
func (ix *Index) TopCentral(limit int) []CentralAuthor {
	return ix.TopCentralCtx(context.Background(), limit)
}

// RebuildGraph discards the incrementally maintained coauthorship graph
// and recomputes it from the indexed corpus — the recovery path when
// incremental state is suspect. The graph is part of the tracker, so
// this is RebuildMetrics.
func (ix *Index) RebuildGraph() { ix.rebuildTrackers(nil) }

// Sections returns the index grouped by letter, in print order; entries
// are deep copies.
func (ix *Index) Sections() []Section {
	sections := ix.engine().Index().Sections()
	for _, s := range sections {
		cloneEntries(s.Entries)
	}
	return sections
}

// Render writes the index to w in the format selected by opts. With
// opts.Statistics set, the Text, Markdown and JSON formats close with a
// contributor-summary appendix built from the metrics tracker; with
// opts.Network set they close with a collaboration-network appendix
// built from the coauthorship graph. The render runs against one
// snapshot root; tracker reads take the tracker read lock.
func (ix *Index) Render(w io.Writer, opts RenderOptions) error {
	return ix.RenderCtx(context.Background(), w, opts)
}

// RenderTitleIndex writes the companion title-index artifact: works
// alphabetized by title (leading articles ignored) with authors and
// citations. Text, TSV and Markdown formats are supported. Like
// RenderSubjectIndex, it renders one snapshot root and sorts that
// root's titles once, for every title index rendered from it.
func (ix *Index) RenderTitleIndex(w io.Writer, opts RenderOptions) error {
	return ix.RenderTitleIndexCtx(context.Background(), w, opts)
}

// RemoveSeeAlso deletes a durable cross-reference previously recorded
// with AddSeeAlso. ErrNotFound if it does not exist.
func (ix *Index) RemoveSeeAlso(from, to string) error {
	fa, err := names.Parse(from)
	if err != nil {
		return fmt.Errorf("authorindex: from heading: %w", err)
	}
	ta, err := names.Parse(to)
	if err != nil {
		return fmt.Errorf("authorindex: to heading: %w", err)
	}
	// Same clone-commit-publish order as AddSeeAlso.
	_, hold := ix.lockTraced(context.Background(), &ix.hold.seeAlso)
	defer hold.End()
	defer ix.mu.Unlock()
	start := time.Now()
	eng := ix.engine().Clone()
	if !eng.Index().RemoveSeeAlso(fa, ta) {
		return fmt.Errorf("%w: cross-reference %s → %s", ErrNotFound, fa.Display(), ta.Display())
	}
	if err := ix.store.DeleteCrossRef(storage.CrossRef{From: fa, To: ta}); err != nil {
		return err
	}
	ix.publish(start, eng)
	return nil
}

// ImportTSV loads postings in the TSV machine format (as produced by
// Render with the TSV format), adding every recovered work and
// cross-reference. It returns the ingest report.
func (ix *Index) ImportTSV(r io.Reader, lenient bool) (*IngestResult, error) {
	res, err := ingest.TSV(r, ingest.Options{Lenient: lenient})
	if err != nil {
		return nil, err
	}
	return res, ix.importResult(res)
}

// ImportCSV loads postings in the CSV format (as produced by Render with
// the CSV format).
func (ix *Index) ImportCSV(r io.Reader, lenient bool) (*IngestResult, error) {
	res, err := ingest.CSV(r, ingest.Options{Lenient: lenient})
	if err != nil {
		return nil, err
	}
	return res, ix.importResult(res)
}

// importResult feeds recovered works through the batched write
// pipeline in IngestBatchSize chunks: each chunk is one lock
// acquisition and one group commit, so a bulk import pays one fsync per
// chunk instead of one per work.
func (ix *Index) importResult(res *ingest.Result) error {
	chunk := make([]Work, 0, min(ix.ingestBatch, len(res.Works)))
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		_, err := ix.AddBatch(chunk)
		chunk = chunk[:0]
		return err
	}
	for _, w := range res.Works {
		cp := *w
		cp.ID = 0 // allocate fresh IDs in this store
		chunk = append(chunk, cp)
		if len(chunk) >= ix.ingestBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for _, ref := range res.CrossRefs {
		if err := ix.AddSeeAlso(ref.From.Display(), ref.To.Display()); err != nil {
			return err
		}
	}
	return nil
}

// Compact writes a snapshot and truncates the write-ahead log.
func (ix *Index) Compact() error {
	_, hold := ix.lockTraced(context.Background(), &ix.hold.compact)
	defer hold.End()
	defer ix.mu.Unlock()
	return ix.store.Compact()
}

// DuplicateSuggestions scans all headings for pairs that may refer to
// the same person (spelling variants, student/professional pairs,
// initialism variants), ordered by confidence. Editors review the list
// and record see-also references for the real ones.
func (ix *Index) DuplicateSuggestions() []Suggestion {
	idx := ix.engine().Index()
	authors := make([]Author, 0, idx.Len())
	idx.Ascend(func(_ []byte, e *Entry) bool {
		authors = append(authors, e.Author)
		return true
	})
	return dedupe.Suggest(authors)
}

// Verify cross-checks every invariant between the durable store, read
// back from disk as a reopen would, and the in-memory indexes: each
// stored work must be retrievable, filed under every one of its authors,
// findable by title search, and counted once; no index may reference a
// work the store does not hold. It returns nil when the index is
// internally consistent.
//
// Verify holds the writer mutex: it cross-checks the store against the
// current engine, so writers must be excluded for the comparison to be
// meaningful. Lock-free snapshot readers are unaffected.
func (ix *Index) Verify() error {
	ctx, tm := trace.Time(context.Background(), "facade.verify", &ix.ops[opVerify])
	defer tm.End()
	_, hold := ix.lockTraced(ctx, &ix.hold.verify)
	defer hold.End()
	defer ix.mu.Unlock()
	eng := ix.engine()
	storeCount := 0
	var storeXor uint64
	err := ix.store.ForEach(func(w *model.Work) error {
		storeCount++
		storeXor ^= query.WorkFingerprint(w)
		got, ok := eng.WorkView(w.ID)
		if !ok {
			return fmt.Errorf("authorindex: verify: stored work %d missing from the index", w.ID)
		}
		if !got.Equal(w) {
			return fmt.Errorf("authorindex: verify: work %d differs between store and index", w.ID)
		}
		for _, a := range w.Authors {
			entry, ok := eng.Index().Lookup(a)
			if !ok {
				return fmt.Errorf("authorindex: verify: work %d not filed under %q", w.ID, a.Display())
			}
			if !entry.Files(w) {
				return fmt.Errorf("authorindex: verify: heading %q lacks work %d", a.Display(), w.ID)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n := eng.Len(); n != storeCount {
		return fmt.Errorf("authorindex: verify: store holds %d works, index %d", storeCount, n)
	}
	// The XOR of per-work fingerprints is order-independent, so the
	// engine's fold over its keys must match the same fold over the
	// store streamed above, without holding the store's corpus at once.
	if x := eng.XorFingerprint(); x != storeXor {
		return fmt.Errorf("authorindex: verify: index fingerprints fold to %016x, store works to %016x", x, storeXor)
	}
	met := eng.Metrics()
	ms := met.Summary()
	if ms.Works != storeCount {
		return fmt.Errorf("authorindex: verify: metrics track %d works, store %d", ms.Works, storeCount)
	}
	if postings := eng.Index().Stats().Postings; ms.Postings != postings {
		return fmt.Errorf("authorindex: verify: metrics count %d postings, index %d", ms.Postings, postings)
	}
	// The incremental tracker — graph and credit counters — must be
	// byte-identical to one rebuilt from scratch over the corpus.
	fresh := metrics.NewEngine(met.Weighting())
	for _, w := range eng.AllWorksView() {
		fresh.Add(w)
	}
	if fresh.Fingerprint() != met.Fingerprint() {
		return fmt.Errorf("authorindex: verify: incremental tracker state differs from a from-scratch rebuild")
	}
	return nil
}

// Stats returns current counters. Each field is read from the same
// source as the metric RegisterMetrics exports for it. Authors counts
// the index's distinct headings, see-also-only ones included.
func (ix *Index) Stats() Stats {
	eng := ix.engine()
	es := eng.Stats()
	ss := ix.store.Stats()
	var nodes, edges, components int
	eng.ReadTrackers(func(met *metrics.Engine) {
		g := met.Graph()
		nodes, edges, components = g.Nodes(), g.Edges(), g.Components()
	})
	return Stats{
		Works:           es.Works,
		Authors:         es.Authors,
		Postings:        es.Postings,
		StudentNotes:    es.StudentNotes,
		CrossRefs:       es.CrossRefs,
		Terms:           es.Terms,
		GraphNodes:      nodes,
		GraphEdges:      edges,
		GraphComponents: components,
		QueriesServed:   es.Query.Queries,
		WorksCloned:     es.Query.WorksCloned,
		PostingsScanned: es.Query.PostingsBytes,

		BatchesCommitted: ss.BatchesCommitted,
		FsyncsSaved:      ss.FsyncsSaved,
		WALSyncs:         ss.WALSyncs,
		Degraded:         ss.Degraded,
		DegradedReason:   ss.DegradedReason,
		DegradedWrites:   ss.DegradedWrites,

		WALBytes:      ss.WALBytes,
		SnapshotBytes: ss.SnapshotBytes,
		InMemory:      ss.InMemory,
		Collation:     ix.coll.Scheme.String(),
		Shards:        1,
	}
}

// Degraded reports whether a write-path I/O failure has latched the
// index read-only, and the error that did. Reads keep serving the last
// published snapshot root; writes fail fast with
// ErrDegraded. The latch clears only by reopening the index, which
// recovers from the snapshot and WAL on disk.
func (ix *Index) Degraded() (bool, error) {
	return ix.store.Degraded()
}

// Close flushes and closes the index. Further mutations fail with
// ErrClosed.
func (ix *Index) Close() error {
	_, hold := ix.lockTraced(context.Background(), &ix.hold.close)
	defer hold.End()
	defer ix.mu.Unlock()
	return ix.store.Close()
}
