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
	"strconv"
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
	"repro/internal/shard"
	"repro/internal/storage"
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
	// Shards partitions the engine into this many hash-sharded
	// sub-engines, each with its own writer mutex, so writes landing on
	// different shards commit in parallel. Zero means 1 (unsharded); negative values or values
	// above MaxShards are rejected by Open. The store is
	// shard-agnostic, so the same directory may be reopened with any
	// shard count.
	Shards int
	// FS is the filesystem seam the durable write path (WAL appends,
	// snapshot compaction) goes through. Nil means the real filesystem.
	// Tests inject a fault.Injector here to exercise the degraded-mode
	// policy; production leaves it nil.
	FS fault.FS
}

// MaxShards bounds Options.Shards.
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
	Shards        int    // hash-partitioned engine shards
}

// Index is an open author-index engine. All methods are safe for
// concurrent use: the corpus is hash-partitioned across engine shards
// (Options.Shards; one by default), writes lock only the shards they
// touch and commit by publishing fresh copy-on-write snapshots of them
// in one new root, and reads load the current root and run entirely
// lock-free (see snapshot.go and internal/shard), so a slow reader
// never stalls a writer, a write burst never convoys readers, and
// writes on different shards never contend with each other. A read
// sees every shard at one instant: a multi-shard batch is visible to
// it entirely or not at all (see AddBatch).
type Index struct {
	store       *storage.Store
	coll        CollationOptions
	ingestBatch int

	// shards is the partitioned engine: every work has one home shard
	// (hashed by ID; cross-references hash by heading collation key),
	// each shard has its own writer mutex, every shard's current engine
	// sits in one atomically published root, and global operations
	// (Verify, Close, tracker rebuilds) exclude all writers at once by
	// taking every shard lock.
	shards *shard.Map

	// swapHists records, per shard, the copy-on-write turnover latency
	// each write pays (clone + path-copied mutation + pointer swap).
	// Bound to a registry by RegisterMetrics, like ops.
	swapHists atomic.Pointer[[]*obs.Histogram]

	// ops holds the per-operation latency histograms. Open points them
	// at obs.Default; RegisterMetrics swaps in a set bound to another
	// registry. Atomic so a swap never races with a recording read.
	ops atomic.Pointer[opSet]
}

// Public operations timed into authdex_op_duration_seconds{op=...}.
type op int

const (
	opSearch op = iota
	opYearRange
	opBySubject
	opGet
	opAdd
	opAddBatch
	opDelete
	opDeleteBatch
	opRender
	opVerify
	opOpen
	numOps
)

var opNames = [numOps]string{
	"search", "year_range", "by_subject", "get", "add",
	"add_batch", "delete", "delete_batch", "render", "verify", "open",
}

type opSet [numOps]*obs.Histogram

// timeOp starts a latency measurement for one public operation; the
// returned func records it. Usage: defer ix.timeOp(opSearch)().
func (ix *Index) timeOp(o op) func() {
	h := ix.ops.Load()[o]
	start := time.Now()
	return func() { h.Since(start) }
}

// RegisterMetrics points the index's telemetry at r: per-operation
// latency histograms (authdex_op_duration_seconds) plus callback
// metrics promoting the Stats counters — queries served, works cloned,
// postings scanned, batches committed, WAL fsyncs, fsyncs saved — and
// corpus-size gauges. Open registers on obs.Default automatically;
// call this only to target a different registry (servers and tests
// do). Safe to call again: callbacks are replaced, histograms are
// swapped atomically.
func (ix *Index) RegisterMetrics(r *obs.Registry) {
	var set opSet
	for i := range set {
		set[i] = r.Histogram("authdex_op_duration_seconds",
			"Latency of public index operations.", "op", opNames[i])
	}
	ix.ops.Store(&set)

	// Each callback reads only its own source — the store counters, the
	// shared query counters, per-shard sums or the heading merge — the
	// same reads Stats makes, so a scrape walks the headings once.
	engs := func() []*query.Engine { return ix.shards.Load().Engs }
	queries := func() query.QueryStats { return engs()[0].QueryStats() }
	sums := func() query.Stats { return shardSums(engs()) }
	store := ix.store.Stats
	r.CounterFunc("authdex_queries_served_total", "Ordered read queries answered since open.",
		func() float64 { return float64(queries().Queries) })
	r.CounterFunc("authdex_works_cloned_total", "Result works deep-copied for callers.",
		func() float64 { return float64(queries().WorksCloned) })
	r.CounterFunc("authdex_postings_scanned_total", "Bytes of posting entries examined by queries.",
		func() float64 { return float64(queries().PostingsBytes) })
	r.CounterFunc("authdex_batches_committed_total", "Group commits applied.",
		func() float64 { return float64(store().BatchesCommitted) })
	r.CounterFunc("authdex_wal_syncs_total", "fsyncs the WAL issued.",
		func() float64 { return float64(store().WALSyncs) })
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
		func() float64 { return float64(sums().Works) })
	r.GaugeFunc("authdex_authors", "Distinct author headings.",
		func() float64 { return float64(shard.Headings(engs(), nil)) })
	r.GaugeFunc("authdex_postings", "Author-work pairs indexed.",
		func() float64 { return float64(sums().Postings) })
	r.GaugeFunc("authdex_wal_bytes", "Current write-ahead-log size.",
		func() float64 { return float64(store().WALBytes) })
	r.GaugeFunc("authdex_snapshot_bytes", "Last snapshot size.",
		func() float64 { return float64(store().SnapshotBytes) })
	hs := make([]*obs.Histogram, ix.shards.N())
	for i := range hs {
		hs[i] = r.Histogram("authdex_snapshot_swap_duration_seconds",
			"Copy-on-write snapshot turnover latency per committed write (engine clone, path-copied mutation, pointer swap).",
			"shard", strconv.Itoa(i))
	}
	ix.swapHists.Store(&hs)
	for i := 0; i < ix.shards.N(); i++ {
		r.GaugeFunc("authdex_shard_works", "Works indexed on one shard.",
			func() float64 { return float64(ix.shards.Load().Engs[i].Len()) },
			"shard", strconv.Itoa(i))
	}
	r.GaugeFunc("authdex_arena_dead_slots",
		"Removed works still referenced by bulk-load arena slabs, awaiting compaction.",
		func() float64 {
			dead := 0
			for _, eng := range ix.shards.Load().Engs {
				_, d := eng.ArenaStats()
				dead += d
			}
			return float64(dead)
		})
	r.GaugeFunc("authdex_epochs_alive",
		"Engine snapshot roots not yet collected; 1 when quiescent.",
		func() float64 { return float64(ix.EpochsAlive()) })
}

// Open opens (creating if necessary) an index rooted at dir. An empty
// dir gives a volatile in-memory index. opts may be nil for defaults.
func Open(dir string, opts *Options) (*Index, error) {
	start := time.Now()
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
	nShards := o.Shards
	if nShards == 0 {
		nShards = 1
	}
	st, err := storage.Open(dir, storage.Options{
		WAL:          wal.Options{NoSync: o.NoSync},
		CompactEvery: o.CompactEvery,
		FS:           o.FS,
	})
	if err != nil {
		return nil, err
	}
	// The seed engine owns the metrics tracker, coauthorship graph and
	// query counters; peer engines on the other shards share those
	// trackers (trackers are corpus-global, not per-shard) while keeping
	// their own index trees.
	seed := query.NewWithScheme(coll, o.MetricsScheme)
	if o.GraphDamping != 0 {
		seed.Graph().SetDamping(o.GraphDamping)
	}
	ix := &Index{store: st, coll: coll, ingestBatch: o.IngestBatchSize}
	ix.shards = shard.New(nShards, func(i int) *query.Engine {
		if i == 0 {
			return seed
		}
		return seed.NewPeer()
	})
	// Cold start is a bulk load, not a replay: the store hands the whole
	// decoded corpus to the engines as shared read-only records (neither
	// side ever mutates a stored work in place), and each shard builds
	// its indexes bottom-up over its partition. The first root was
	// published by shard.New before the index is visible to any reader,
	// so loading its engines in place is unobservable. The shared
	// trackers rebuild once over the whole corpus, beside the shard
	// loads.
	works := st.Works()
	parts := make([][]*model.Work, nShards)
	for _, w := range works {
		si := ix.shards.ForWork(w.ID)
		parts[si] = append(parts[si], w)
	}
	trackersDone := make(chan struct{})
	go func() {
		defer close(trackersDone)
		seed.RebuildTrackers(works)
	}()
	for i, eng := range ix.shards.Load().Engs {
		if err := eng.LoadCorpus(context.Background(), parts[i]); err != nil {
			<-trackersDone
			st.Close()
			return nil, fmt.Errorf("authorindex: rebuild shard %d from store: %w", i, err)
		}
	}
	<-trackersDone
	if refs := st.CrossRefs(); len(refs) > 0 {
		groups := make([][]core.SeeAlsoRef, nShards)
		for _, ref := range refs {
			si := ix.shards.ForKey(collate.KeyAuthor(ref.From, coll))
			groups[si] = append(groups[si], core.SeeAlsoRef{From: ref.From, To: ref.To})
		}
		for i, eng := range ix.shards.Load().Engs {
			if len(groups[i]) == 0 {
				continue
			}
			if err := eng.Index().AddSeeAlsoBatch(groups[i]); err != nil {
				st.Close()
				return nil, fmt.Errorf("authorindex: restore cross-refs: %w", err)
			}
		}
	}
	ix.RegisterMetrics(obs.Default)
	ix.ops.Load()[opOpen].Since(start)
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
// The commit order is validate and reserve IDs, commit to the store,
// then index and publish. Validation is the only check a work can
// fail, and it runs before anything is written, so an invalid work
// anywhere in the batch or a WAL error leaves storage, indexes, metrics
// and the coauthorship graph byte-identical to their pre-batch state.
// Visibility is atomic: with Options.Shards > 1 a committed batch
// publishes every shard's portion in one snapshot root, so a
// concurrent reader sees all of the batch or none of it, and every
// read started after AddBatch returns sees the whole batch.
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
func (ix *Index) Len() int {
	n := 0
	for _, eng := range ix.shards.Load().Engs {
		n += eng.Len()
	}
	return n
}

// Author looks up one heading by its index-order string. An author
// whose works are spread across shards is assembled from every shard's
// partial entry.
func (ix *Index) Author(heading string) (*Entry, bool) {
	engs := ix.shards.Load().Engs
	parts := make([][]*Entry, len(engs))
	found := false
	for i, eng := range engs {
		if e, ok := eng.AuthorExact(heading); ok {
			parts[i] = []*Entry{e}
			found = true
		}
	}
	if !found {
		return nil, false
	}
	return shard.MergeEntries(parts, ix.coll, 0)[0], true
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
// work count, summed across shards.
func (ix *Index) Subjects() []SubjectCount {
	parts := shard.Gather(ix.shards.Load().Engs, func(_ int, eng *query.Engine) []query.KeyedSubject {
		return eng.KeyedSubjects()
	})
	return shard.MergeSubjects(parts)
}

// BySubject returns the works filed under a subject heading, matched
// case- and diacritic-insensitively, in citation order.
func (ix *Index) BySubject(subject string, limit int) []*Work {
	return ix.BySubjectCtx(context.Background(), subject, limit)
}

// RenderSubjectIndex writes the subject-index artifact: works grouped
// under their subject headings. Text, TSV and Markdown formats are
// supported. Rendering reads a zero-copy view of one snapshot root — no
// lock (indexed works are immutable, so the view stays valid however
// many commits land during the render).
func (ix *Index) RenderSubjectIndex(w io.Writer, opts RenderOptions) error {
	return render.SubjectIndex(w, ix.allWorksView(), ix.coll, opts)
}

// allWorksView concatenates every shard's zero-copy corpus view from
// one root. Order is per-shard; consumers that need a global order (the
// title and subject renders) sort internally.
func (ix *Index) allWorksView() []*model.Work {
	var out []*model.Work
	for _, eng := range ix.shards.Load().Engs {
		out = append(out, eng.AllWorksView()...)
	}
	return out
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
	// Cross-references live on the shard their From heading hashes to,
	// so a lookup of that heading finds them without a fan-out.
	s := ix.shards.Shard(ix.shards.ForKey(collate.KeyAuthor(fa, ix.coll)))
	s.Lock()
	defer s.Unlock()
	// Mutate a clone, commit to the store, then publish: a store error
	// discards the clone, so engine and store can no longer diverge the
	// way the old engine-first order allowed.
	start := time.Now()
	eng := s.Head().Clone()
	if err := eng.Index().AddSeeAlso(fa, ta); err != nil {
		return err
	}
	if err := ix.store.AddCrossRef(storage.CrossRef{From: fa, To: ta}); err != nil {
		return err
	}
	ix.publish(start, map[int]*query.Engine{s.ID(): eng})
	return nil
}

// AuthorMetrics returns the bibliometrics snapshot for one heading:
// work counts by kind and year, fractional and position-weighted
// credit, productivity h-index and collaboration degree.
func (ix *Index) AuthorMetrics(heading string) (AuthorMetrics, bool) {
	return ix.trackers().AuthorMetrics(heading)
}

// trackers returns shard 0's current engine for a metrics or graph
// read. The trackers are corpus-global and shared by every shard's
// engines, so any shard would do; reading one avoids a pointless
// fan-out.
func (ix *Index) trackers() *query.Engine { return ix.shards.Load().Engs[0] }

// TopAuthors returns up to limit author snapshots ranked by the given
// key, best first. The limit is clamped like every query limit.
func (ix *Index) TopAuthors(by RankKey, limit int) []AuthorMetrics {
	return ix.TopAuthorsCtx(context.Background(), by, limit)
}

// MetricsSummary returns corpus-level collaboration statistics.
func (ix *Index) MetricsSummary() MetricsSummary {
	return ix.trackers().MetricsSummary()
}

// SetMetricsScheme swaps the credit-weighting scheme, rebuilding the
// metrics state from the corpus (O(corpus), a recovery-grade path).
// The trackers are corpus-global, so the rebuild is coordinator-level:
// it excludes every writer, constructs the fresh tracker off to the
// side, and republishes every shard pointing at it — concurrent
// readers never observe a half-built tracker.
func (ix *Index) SetMetricsScheme(s Scheme) error {
	if !s.Valid() {
		return fmt.Errorf("authorindex: invalid metrics scheme %d", s)
	}
	ix.shards.LockAll()
	defer ix.shards.UnlockAll()
	var same bool
	var gr *graph.Graph
	ix.trackers().ReadTrackers(func(met metrics.Tracker, g *graph.Graph) {
		same = met.Weighting() == s
		gr = g
	})
	if same {
		return nil
	}
	fresh := metrics.NewEngine(s)
	fresh.Rebuild(ix.allWorksView())
	ix.replaceTrackers(fresh, gr)
	return nil
}

// replaceTrackers clones every shard head, points the clones at the
// given tracker pair, and publishes them all in one root — the tail of
// every whole-corpus tracker rebuild. Callers hold LockAll.
func (ix *Index) replaceTrackers(met metrics.Tracker, gr *graph.Graph) {
	start := time.Now()
	clones := make(map[int]*query.Engine, ix.shards.N())
	for i, eng := range ix.shards.Load().Engs {
		clones[i] = eng.Clone()
		clones[i].ReplaceTrackers(met, gr)
	}
	ix.publish(start, clones)
}

// RebuildMetrics discards the incrementally maintained metrics state
// and recomputes it from the indexed corpus — the recovery path when
// incremental state is suspect.
func (ix *Index) RebuildMetrics() {
	ix.shards.LockAll()
	defer ix.shards.UnlockAll()
	var scheme Scheme
	var gr *graph.Graph
	ix.trackers().ReadTrackers(func(met metrics.Tracker, g *graph.Graph) {
		scheme = met.Weighting()
		gr = g
	})
	fresh := metrics.NewEngine(scheme)
	fresh.Rebuild(ix.allWorksView())
	ix.replaceTrackers(fresh, gr)
}

// CollaborationPath returns the shortest coauthorship chain between two
// headings given in index-order form ("Lewin, Jeff L."), endpoints
// included — the Erdős-style distance is len(path)-1. It reports false
// when either heading is unknown or no chain of shared works connects
// them.
func (ix *Index) CollaborationPath(from, to string) ([]string, bool) {
	return ix.trackers().CollaborationPath(from, to)
}

// Centrality returns a heading's PageRank score in the coauthorship
// network; scores across all authors sum to 1.
func (ix *Index) Centrality(heading string) (float64, bool) {
	return ix.trackers().Centrality(heading)
}

// Collaborators returns a heading's co-authors with shared-work counts,
// heaviest first.
func (ix *Index) Collaborators(heading string) []Neighbor {
	return ix.trackers().GraphNeighbors(heading)
}

// GraphSummary returns coauthorship-network aggregates: node, edge and
// component counts, the largest component, density, and the most
// central authors under the configured damping factor.
func (ix *Index) GraphSummary() GraphSummary {
	return ix.trackers().GraphSummary()
}

// TopCentral returns up to limit authors by network centrality, best
// first. The limit is clamped like every query limit.
func (ix *Index) TopCentral(limit int) []CentralAuthor {
	return ix.TopCentralCtx(context.Background(), limit)
}

// RebuildGraph discards the incrementally maintained coauthorship graph
// and recomputes it from the indexed corpus — the recovery path when
// incremental state is suspect.
func (ix *Index) RebuildGraph() {
	ix.shards.LockAll()
	defer ix.shards.UnlockAll()
	var met metrics.Tracker
	var damping float64
	ix.trackers().ReadTrackers(func(m metrics.Tracker, g *graph.Graph) {
		met = m
		damping = g.Damping()
	})
	fresh := graph.New(damping)
	fresh.Rebuild(ix.allWorksView())
	ix.replaceTrackers(met, fresh)
}

// Sections returns the index grouped by letter, in print order; entries
// are deep copies, merged across shards.
func (ix *Index) Sections() []Section {
	parts := shard.Gather(ix.shards.Load().Engs, func(_ int, eng *query.Engine) []Section {
		return eng.Index().Sections()
	})
	return shard.MergeSections(parts, ix.coll)
}

// Render writes the index to w in the format selected by opts. With
// opts.Statistics set, the Text, Markdown and JSON formats close with a
// contributor-summary appendix built from the metrics tracker; with
// opts.Network set they close with a collaboration-network appendix
// built from the coauthorship graph. The render runs against one
// snapshot root; tracker reads take the shared tracker read lock.
func (ix *Index) Render(w io.Writer, opts RenderOptions) error {
	return ix.RenderCtx(context.Background(), w, opts)
}

// RenderTitleIndex writes the companion title-index artifact: works
// alphabetized by title (leading articles ignored) with authors and
// citations. Text, TSV and Markdown formats are supported. Like
// RenderSubjectIndex, it renders from a zero-copy snapshot view.
func (ix *Index) RenderTitleIndex(w io.Writer, opts RenderOptions) error {
	return render.TitleIndex(w, ix.allWorksView(), ix.coll, opts)
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
	// Same home-shard routing and clone-commit-publish order as
	// AddSeeAlso.
	s := ix.shards.Shard(ix.shards.ForKey(collate.KeyAuthor(fa, ix.coll)))
	s.Lock()
	defer s.Unlock()
	start := time.Now()
	eng := s.Head().Clone()
	if !eng.Index().RemoveSeeAlso(fa, ta) {
		return fmt.Errorf("%w: cross-reference %s → %s", ErrNotFound, fa.Display(), ta.Display())
	}
	if err := ix.store.DeleteCrossRef(storage.CrossRef{From: fa, To: ta}); err != nil {
		return err
	}
	ix.publish(start, map[int]*query.Engine{s.ID(): eng})
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
	ix.shards.LockAll()
	defer ix.shards.UnlockAll()
	return ix.store.Compact()
}

// DuplicateSuggestions scans all headings for pairs that may refer to
// the same person (spelling variants, student/professional pairs,
// initialism variants), ordered by confidence. Editors review the list
// and record see-also references for the real ones.
func (ix *Index) DuplicateSuggestions() []Suggestion {
	var authors []Author
	shard.Headings(ix.shards.Load().Engs, func(a Author) { authors = append(authors, a) })
	return dedupe.Suggest(authors)
}

// Verify cross-checks every invariant between the durable store and the
// in-memory indexes: each stored work must be retrievable, filed under
// every one of its authors, findable by title search, and counted once;
// no index may reference a work the store does not hold. It returns nil
// when the index is internally consistent.
//
// Verify takes every shard lock: it cross-checks the store against
// every shard's head engine, so writers must be excluded for the
// comparison to be meaningful. Lock-free snapshot readers are
// unaffected — they never touch a shard lock.
func (ix *Index) Verify() error {
	defer ix.timeOp(opVerify)()
	ix.shards.LockAll()
	defer ix.shards.UnlockAll()
	heads := ix.shards.Load().Engs
	storeCount := 0
	var storeXor uint64
	err := ix.store.ForEach(func(w *model.Work) error {
		storeCount++
		storeXor ^= query.WorkFingerprint(w)
		home := ix.shards.ForWork(w.ID)
		eng := heads[home]
		got, ok := eng.WorkView(w.ID)
		if !ok {
			return fmt.Errorf("authorindex: verify: stored work %d missing from shard %d", w.ID, home)
		}
		if !got.Equal(w) {
			return fmt.Errorf("authorindex: verify: work %d differs between store and shard %d", w.ID, home)
		}
		for _, a := range w.Authors {
			entry, ok := eng.Index().Lookup(a)
			if !ok {
				return fmt.Errorf("authorindex: verify: work %d not filed under %q", w.ID, a.Display())
			}
			found := false
			for _, filed := range entry.Works {
				if filed.ID == w.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("authorindex: verify: heading %q lacks work %d", a.Display(), w.ID)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	engCount, worksTotal, postings := 0, 0, 0
	var shardXor uint64
	for _, h := range heads {
		st := h.Stats()
		engCount += h.Len()
		worksTotal += st.Works
		postings += st.Postings
		shardXor ^= h.XorFingerprint()
	}
	if engCount != storeCount {
		return fmt.Errorf("authorindex: verify: store holds %d works, shards %d", storeCount, engCount)
	}
	// Per-shard fingerprints XOR-combine into the corpus fingerprint
	// (XOR is commutative, so partitioning cannot change it): the
	// combined value must match the same fold over the store — the
	// fingerprint a from-scratch unsharded rebuild would produce.
	if shardXor != storeXor {
		return fmt.Errorf("authorindex: verify: shard fingerprints fold to %016x, store works to %016x", shardXor, storeXor)
	}
	if worksTotal != storeCount {
		return fmt.Errorf("authorindex: verify: author index counts %d works, store %d", worksTotal, storeCount)
	}
	// The trackers are corpus-global and shared by every shard, so
	// tracker-level checks read one head.
	ms := heads[0].Metrics().Summary()
	if ms.Works != storeCount {
		return fmt.Errorf("authorindex: verify: metrics track %d works, store %d", ms.Works, storeCount)
	}
	if ms.Postings != postings {
		return fmt.Errorf("authorindex: verify: metrics count %d postings, index %d", ms.Postings, postings)
	}
	g := heads[0].Graph()
	if g.Works() != storeCount {
		return fmt.Errorf("authorindex: verify: graph tracks %d works, store %d", g.Works(), storeCount)
	}
	// The graph and the metrics tracker maintain the collaboration
	// structure independently; their node and pair counts must agree.
	if g.Nodes() != ms.Authors {
		return fmt.Errorf("authorindex: verify: graph holds %d nodes, metrics %d authors", g.Nodes(), ms.Authors)
	}
	if g.Edges() != ms.Pairs {
		return fmt.Errorf("authorindex: verify: graph holds %d edges, metrics %d pairs", g.Edges(), ms.Pairs)
	}
	// The incremental graph must be byte-identical to one rebuilt from
	// scratch over the union of every shard's corpus.
	fresh := graph.New(g.Damping())
	for _, h := range heads {
		for _, w := range h.AllWorksView() {
			fresh.Add(w)
		}
	}
	if fresh.Fingerprint() != g.Fingerprint() {
		return fmt.Errorf("authorindex: verify: incremental graph state differs from a from-scratch rebuild")
	}
	return nil
}

// Stats returns current counters. Per-shard counts sum (works,
// postings, cross-references are disjoint across shards); Authors
// counts distinct headings, since one heading's works can spread over
// several shards; Terms is summed per shard, so with several shards it
// is an upper bound on globally distinct terms. Query counters and
// graph counts come from the shared trackers, read once. Each field is
// read from the same source as the metric RegisterMetrics exports for
// it.
func (ix *Index) Stats() Stats {
	engs := ix.shards.Load().Engs
	e0 := engs[0]
	sum := shardSums(engs)
	qs := e0.QueryStats()
	ss := ix.store.Stats()
	nodes, edges, components := e0.GraphCounts()
	return Stats{
		Works:           sum.Works,
		Authors:         shard.Headings(engs, nil),
		Postings:        sum.Postings,
		StudentNotes:    sum.StudentNotes,
		CrossRefs:       sum.CrossRefs,
		Terms:           sum.Terms,
		GraphNodes:      nodes,
		GraphEdges:      edges,
		GraphComponents: components,
		QueriesServed:   qs.Queries,
		WorksCloned:     qs.WorksCloned,
		PostingsScanned: qs.PostingsBytes,

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
		Shards:        ix.shards.N(),
	}
}

// shardSums adds up the per-shard counters of one root. Works,
// postings, student notes and cross-references are disjoint across
// shards, so their sums are exact. Authors is left zero: a heading's
// works can sit on several shards (see shard.Headings).
func shardSums(engs []*query.Engine) query.Stats {
	var sum query.Stats
	for _, eng := range engs {
		es := eng.Stats()
		sum.Works += es.Works
		sum.Postings += es.Postings
		sum.StudentNotes += es.StudentNotes
		sum.CrossRefs += es.CrossRefs
		sum.Terms += es.Terms
	}
	return sum
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
	ix.shards.LockAll()
	defer ix.shards.UnlockAll()
	return ix.store.Close()
}
