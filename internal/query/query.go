// Package query combines the author index, the inverted title index and
// secondary year/volume indexes into one lookup engine: exact and prefix
// author lookups, boolean title search, and citation-range scans.
//
// The read path is allocation-light by design: every work gets a
// precomputed citation sort key at Add time, and the secondary indexes
// are keyed on it so range scans stream out already in citation order.
// Work reads come as zero-copy *View methods that return live
// references (TitleSearch, YearRange, Work and AllWorks also come as
// copies, for callers outside the facade); author reads return live,
// frozen entries only. The public facade is the one place that copies:
// it deep-copies only what it returns.
package query

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inverted"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Index-mutation latency on the process-wide registry: what one work
// costs to file (or replace, or unfile) across all six indexes.
const mutHelp = "Latency of engine index mutations across all indexes."

var (
	mutAddBatch = obs.Default.Histogram("authdex_index_mutation_duration_seconds", mutHelp, "op", "add_batch")
	mutRemove   = obs.Default.Histogram("authdex_index_mutation_duration_seconds", mutHelp, "op", "remove")
)

// timePhase times one LoadAll phase as the span name and one sample of
// authdex_load_phase_duration_seconds{phase}, so a slow cold start can
// be attributed to one index rather than guessed at from the total.
func timePhase(ctx context.Context, name, phase string) (context.Context, trace.Timer) {
	return trace.Time(ctx, name, obs.Default.Histogram("authdex_load_phase_duration_seconds",
		"Latency of LoadAll bulk-load phases.", "phase", phase))
}

// MaxLimit bounds every caller-supplied result limit so one request
// cannot ask for an unbounded result set.
const MaxLimit = 10_000

// ClampLimit normalizes a caller-supplied result limit, shared by the
// CLI and HTTP layers so both clamp identically: negative values fall
// back to def, zero ("all") and values above MaxLimit clamp to
// MaxLimit.
func ClampLimit(n, def int) int {
	switch {
	case n < 0:
		return def
	case n == 0 || n > MaxLimit:
		return MaxLimit
	default:
		return n
	}
}

// Engine owns every in-memory index over a corpus. Mutation requires
// external serialization (the facade's writer mutex), but the
// corpus indexes follow a copy-on-write discipline: Clone is O(1), a
// mutation on one engine path-copies only the index nodes it touches,
// and filed values (*workEntry works, postings lists, author entries)
// are never edited in place. A cloned engine that is no longer mutated
// is therefore a frozen snapshot that any number of readers may use
// with no lock at all.
//
// The tracker (met) is the exception: it is a live mutable structure
// shared across clones, guarded by trkMu — writers hold it only for the
// µs-scale incremental update, never across I/O, and the tracker read
// surfaces take the read side. Snapshot consistency is defined over the
// corpus indexes; tracker reads are current-state.
type Engine struct {
	idx *core.Index
	// inv is the title index. Its postings hold the entries themselves,
	// in citation-key order, so a search streams out in the order it is
	// printed and its answer is the first limit matches.
	inv *inverted.Index[*workEntry]
	// byID keys works on the big-endian work ID (the last 8 bytes of
	// each entry's key buffer): point lookups descend the tree, and a
	// full ascent is the corpus in ID order.
	byID *btree.Tree[*workEntry]
	// byYear keys works on year ‖ citation key (the whole key buffer): a
	// one-year scan streams out already in citation order, and a
	// multi-year scan is a concatenation of citation-ordered runs.
	byYear *btree.Tree[*workEntry]
	// byCitation keys works on the citation key itself. The key leads
	// with the volume, so a per-volume scan is a prefix range that is
	// already in citation order — and a full ascent is the whole corpus
	// in citation order.
	byCitation *btree.Tree[*workEntry]
	// bySubject maps collation keys of subject headings to their display
	// form and posting list, for subject lookups and enumeration.
	bySubject *btree.Tree[*subjectPosting]
	// met maintains per-author bibliometrics and, in the graph it owns,
	// the coauthorship network incrementally; every Add and Remove feeds
	// it. Shared across clones; guarded by trkMu.
	met *metrics.Engine
	// trkMu guards met: mutations hold the write side for the
	// incremental update only; lock-free snapshot readers that consult
	// the tracker hold the read side. Shared across clones.
	trkMu *sync.RWMutex
	coll  collate.Options
	// qs is shared across clones so read-path counters accumulate
	// globally no matter which snapshot served the query.
	qs *queryCounters
}

// Clone returns an O(1) copy-on-write snapshot of the engine: every
// corpus index shares its nodes with the original until one side
// mutates, and the tracker, counters and tracker lock are shared
// outright. The caller mutates the clone (under its write lock) and
// publishes it; the original — and every previously published clone —
// keeps a frozen, internally consistent corpus view.
func (e *Engine) Clone() *Engine {
	cp := *e
	cp.idx = e.idx.Clone()
	cp.inv = e.inv.Clone()
	cp.byID = e.byID.Clone()
	cp.byYear = e.byYear.Clone()
	cp.byCitation = e.byCitation.Clone()
	cp.bySubject = e.bySubject.Clone()
	return &cp
}

// workEntry is what the engine stores per work: the (immutable) work
// itself and one key buffer, built once at Add,
//
//	year(4) ‖ citationKey(w)
//
// from which every tree key is a subslice: byYear files the whole
// buffer, byCitation the citation key (citKey), and byID the last 8
// bytes (idKey), which are the big-endian work ID every citation key
// ends with. The trees own these slices without copying them, so a
// work costs two heap objects (the entry and its buffer) however many
// trees file it. Nothing writes to the buffer after it is built. All
// ordered reads compare citation keys with bytes.Compare instead of
// calling Citation.Compare and comparing titles per sort step. Subject
// collation keys are not kept: Remove, the rare path, recomputes them.
type workEntry struct {
	w   *model.Work
	key []byte
}

// newEntry builds the entry and key buffer for w.
func newEntry(w *model.Work) *workEntry { return &workEntry{w: w, key: entryKey(w)} }

// citKey is the entry's citation key: its key buffer after the year.
func (we *workEntry) citKey() []byte { return we.key[4:] }

// idKey is the entry's byID key: the last 8 bytes of its key buffer.
func (we *workEntry) idKey() []byte { return we.key[len(we.key)-8:] }

type subjectPosting struct {
	display string
	// refs is sorted by citation key, so subject lookups stream out
	// pre-ordered and never sort.
	refs []*workEntry
}

// New returns an empty engine with the given collation options and the
// default (harmonic) metrics scheme.
func New(opts collate.Options) *Engine {
	return NewWithScheme(opts, metrics.Harmonic)
}

// NewWithScheme returns an empty engine whose metrics tracker divides
// authorship credit under the given scheme.
func NewWithScheme(opts collate.Options, scheme metrics.Scheme) *Engine {
	return &Engine{
		idx:        core.New(opts),
		inv:        inverted.New(compareRefs),
		byID:       btree.New[*workEntry](),
		byYear:     btree.New[*workEntry](),
		byCitation: btree.New[*workEntry](),
		bySubject:  btree.New[*subjectPosting](),
		met:        metrics.NewEngine(scheme),
		trkMu:      &sync.RWMutex{},
		coll:       opts,
		qs:         &queryCounters{},
	}
}

// Index exposes the underlying author index (for rendering and stats).
func (e *Engine) Index() *core.Index { return e.idx }

// Len returns the number of indexed works.
func (e *Engine) Len() int { return e.byID.Len() }

// Add indexes w everywhere: AddBatch of one work, taking ownership
// of w as AddBatch does. Re-adding an existing ID replaces the old
// version.
func (e *Engine) Add(w *model.Work) error {
	return e.AddBatch([]*model.Work{w})
}

// AddBatch indexes a batch of works in one pass: subject postings and
// title terms take the batch's works as one key-sorted run merged into
// the filed refs once per touched posting (inverted.MergeRun), and the
// tracker and citation-key indexes are all fed inside a single loop.
// Duplicate IDs within the batch behave like sequential adds (the last
// occurrence wins); IDs already indexed are replaced.
//
// Like LoadAll, AddBatch retains the given works instead of cloning
// them: callers hand them over as shared read-only records and must
// not modify them afterwards. The facade hands over the clones it took
// of its caller's works, which its store's delta files too.
//
// Every work is validated before anything is touched, so an invalid
// work anywhere in the batch leaves the engine byte-identical to its
// pre-batch state. No mutation after validation can fail; should one
// ever report an error, the engine is left partly mutated and must be
// discarded, as the facade discards its writer clone.
func (e *Engine) AddBatch(works []*model.Work) error {
	if len(works) == 0 {
		return nil
	}
	defer mutAddBatch.Since(time.Now())
	for _, w := range works {
		if err := w.Validate(); err != nil {
			return err
		}
		if w.ID == 0 {
			return fmt.Errorf("query: work %q has no ID", w.Title)
		}
	}
	// Sequential-add semantics for duplicate IDs: only the last
	// occurrence survives, so index exactly that one.
	effective := works
	if len(works) > 1 && hasDuplicateIDs(works) {
		last := make(map[model.WorkID]int, len(works))
		for i, w := range works {
			last[w.ID] = i
		}
		effective = make([]*model.Work, 0, len(last))
		for i, w := range works {
			if last[w.ID] == i {
				effective = append(effective, w)
			}
		}
	}
	// Replacements first, so the batch loop below only ever inserts.
	for _, w := range effective {
		e.Remove(w.ID)
	}
	// Each touched posting collects the batch's entries as an unsorted
	// run beside its filed refs; merge files them once at the end.
	// The filed postings themselves are never mutated, so snapshot
	// readers iterating them stay undisturbed.
	touched := make(map[string]*postingRun)
	titles := make([]inverted.Doc[*workEntry], 0, len(effective))
	for _, w := range effective {
		if err := e.idx.Add(w); err != nil {
			return err
		}
		we := newEntry(w)
		titles = append(titles, inverted.Doc[*workEntry]{Ref: we, Text: w.Title})
		e.byYear.Set(we.key, we)
		e.byCitation.Set(we.citKey(), we)
		for _, s := range w.Subjects {
			key := collate.KeyString(s, e.coll)
			r, ok := touched[string(key)]
			if !ok {
				r = &postingRun{display: s}
				if filed, inTree := e.bySubject.Get(key); inTree {
					r.display, r.filed = filed.display, filed.refs
				}
				touched[string(key)] = r
			}
			r.run = append(r.run, we)
		}
		e.trkMu.Lock()
		e.met.Add(w)
		e.trkMu.Unlock()
		e.byID.Set(we.idKey(), we)
	}
	for k, r := range touched {
		e.bySubject.Set([]byte(k), r.merge())
	}
	e.inv.AddBatch(titles)
	return nil
}

// LoadAll bulk-loads a complete corpus into an empty engine — the cold
// start path Open uses instead of replaying the store one Add at a
// time. Every work is validated up front, citation sort keys are
// computed and sorted once, and each index is built bottom-up from the
// sorted corpus (btree.BulkLoad for the author, year, citation and
// subject trees; subject and title postings appended from the sorted
// pass, so no posting list is ever sorted) while the tracker — a
// whole-corpus recomputation by definition — rebuilds on a goroutine
// beside them. The result is indistinguishable from Add-ing every work
// to a fresh engine, at a fraction of the cost.
//
// Works must carry unique non-zero IDs. Like AddBatch, LoadAll retains
// the given works instead of cloning them: callers hand them over as
// shared read-only records (the store and the engine both guarantee a
// work is never mutated in place) and must not modify them afterwards.
// Any error leaves the engine empty and usable.
func (e *Engine) LoadAll(works []*model.Work) error {
	return e.LoadAllCtx(context.Background(), works)
}

// LoadAllCtx is LoadAll carrying a trace context: the corpus load is
// one "engine.load_all" span with a child per build phase, beside a
// "load.metrics" span for the tracker rebuild — the span tree shows
// which index dominated a slow cold start.
func (e *Engine) LoadAllCtx(ctx context.Context, works []*model.Work) error {
	if err := e.checkEmpty(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, tm := timePhase(ctx, "load.metrics", "metrics")
		defer tm.End()
		if len(works) >= 10_000 {
			defer relaxGC()()
		}
		e.met.Rebuild(works)
	}()
	err := e.loadCorpus(ctx, works)
	<-done
	if err != nil {
		// A failed load leaves the engine empty; empty the tracker too.
		e.met.Rebuild(nil)
	}
	return err
}

// loadCorpus is LoadAll minus the tracker rebuild, which LoadAllCtx
// runs beside it. The build phases run on parallel goroutines, each a
// child span attached and ended on its own goroutine; wg.Wait orders
// every child End before the parent's, keeping the tree well-formed.
func (e *Engine) loadCorpus(ctx context.Context, works []*model.Work) error {
	if err := e.checkEmpty(); err != nil {
		return err
	}
	if len(works) == 0 {
		return nil
	}
	ctx, load := timePhase(ctx, "engine.load_all", "total")
	load.Span.SetInt("works", int64(len(works)))
	defer load.End()
	// A bulk load's entire job is growing a large live heap; garbage
	// collection during it re-marks that growing live set over and over
	// for nothing, so relax the pacer for the duration (restored when
	// the last concurrent load finishes). Peak memory during a big cold
	// start rises accordingly.
	if len(works) >= 10_000 {
		defer relaxGC()()
	}
	// Per-work validation is core.Load's job below (it runs the same
	// checks this engine's Add would); the only cross-work invariant is
	// ID uniqueness. Citation-key computation is per-work independent
	// and fans out across cores.
	_, validate := timePhase(ctx, "load.validate", "validate")
	seen := make(map[model.WorkID]struct{}, len(works))
	for _, w := range works {
		if w.ID == 0 {
			validate.End()
			return fmt.Errorf("query: work %q has no ID", w.Title)
		}
		if _, dup := seen[w.ID]; dup {
			validate.End()
			return fmt.Errorf("query: duplicate work ID %d in bulk load", w.ID)
		}
		seen[w.ID] = struct{}{}
	}
	validate.End()
	// Each entry and its key buffer are their own allocations, so a
	// removed work becomes garbage as soon as no snapshot holds it.
	_, keys := timePhase(ctx, "load.sort_keys", "sort_keys")
	entries := make([]*workEntry, len(works))
	if err := parallel.Ranges(len(works), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			entries[i] = newEntry(works[i])
		}
		return nil
	}); err != nil {
		keys.End()
		return err
	}
	// One citation-key sort: every ordered index below derives from this
	// pass instead of paying a per-work tree descent.
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, compareRefs)
	keys.End()

	// The index builds run concurrently: the author index (the most
	// expensive — it clones one work per posting), the inverted title
	// index, the ordered trees and the subject postings. Each build is
	// independent and writes only its own slot; errors (all unreachable
	// after the validation pass above, since it mirrors every builder's
	// checks) propagate and leave the engine empty.
	var (
		wg         sync.WaitGroup
		idx        *core.Index
		inv        *inverted.Index[*workEntry]
		byID       *btree.Tree[*workEntry]
		byYear     *btree.Tree[*workEntry]
		byCitation *btree.Tree[*workEntry]
		bySubject  *btree.Tree[*subjectPosting]
		errs       [5]error
	)
	wg.Add(5)
	go func() {
		defer wg.Done()
		_, tm := timePhase(ctx, "load.id_index", "id_index")
		defer tm.End()
		byID, errs[4] = loadIDTree(entries)
	}()
	go func() {
		defer wg.Done()
		_, tm := timePhase(ctx, "load.author_index", "author_index")
		defer tm.End()
		idx, errs[0] = core.Load(e.coll, works)
	}()
	go func() {
		defer wg.Done()
		_, tm := timePhase(ctx, "load.inverted", "inverted")
		defer tm.End()
		docs := make([]inverted.Doc[*workEntry], len(sorted))
		for i, we := range sorted {
			docs[i] = inverted.Doc[*workEntry]{Ref: we, Text: we.w.Title}
		}
		inv = inverted.Load(compareRefs, docs)
	}()
	go func() {
		defer wg.Done()
		_, tm := timePhase(ctx, "load.citation_trees", "citation_trees")
		defer tm.End()
		byCitation, byYear, errs[1], errs[2] = loadCitationTrees(sorted)
	}()
	go func() {
		defer wg.Done()
		_, tm := timePhase(ctx, "load.subjects", "subjects")
		defer tm.End()
		bySubject, errs[3] = e.loadSubjects(entries, sorted)
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	e.idx, e.inv, e.byID = idx, inv, byID
	e.byYear, e.byCitation, e.bySubject = byYear, byCitation, bySubject
	return nil
}

// checkEmpty rejects a bulk load into an engine that already holds
// works or headings. idx.Len counts headings, so see-also-only entries
// (a cross-reference recorded before any work) block the load too
// rather than being silently discarded with the replaced index.
func (e *Engine) checkEmpty() error {
	if e.byID.Len() > 0 || e.idx.Len() > 0 {
		return fmt.Errorf("query: bulk load into an engine already holding %d works, %d headings",
			e.byID.Len(), e.idx.Len())
	}
	return nil
}

// relaxGCState tracks how many bulk loads are in flight so the GC
// pacer is raised once and restored exactly when the last one ends —
// overlapping loads (several indexes opening in one process) must not
// leave the raised setting behind.
var relaxGCState struct {
	mu    sync.Mutex
	depth int
	old   int
}

// relaxGC raises GOGC to 300 for the duration between the call and the
// returned restore func. A pacer that is already laxer (GOGC off, or
// above 300) is left untouched. Safe for concurrent and nested use.
func relaxGC() func() {
	s := &relaxGCState
	s.mu.Lock()
	if s.depth == 0 {
		s.old = debug.SetGCPercent(300)
		if s.old < 0 || s.old > 300 {
			debug.SetGCPercent(s.old) // app already runs laxer; keep it
		}
	}
	s.depth++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		if s.depth--; s.depth == 0 {
			debug.SetGCPercent(s.old)
		}
		s.mu.Unlock()
	}
}

// compareRefs orders work entries by citation key: the order of every
// ref list the engine keeps (title and subject postings) and of every
// ordered answer.
func compareRefs(a, b *workEntry) int { return bytes.Compare(a.citKey(), b.citKey()) }

// loadIDTree bulk-builds the byID tree from the input-ordered entries.
func loadIDTree(entries []*workEntry) (*btree.Tree[*workEntry], error) {
	ordered := slices.Clone(entries)
	slices.SortFunc(ordered, func(a, b *workEntry) int { return cmp.Compare(a.w.ID, b.w.ID) })
	pairs := make([]btree.Pair[*workEntry], len(ordered))
	for i, we := range ordered {
		pairs[i] = btree.Pair[*workEntry]{Key: we.idKey(), Value: we}
	}
	return btree.BulkLoad(pairs)
}

// loadCitationTrees bulk-builds byCitation and byYear from entries
// sorted by citation key. The byYear key order (year ‖ citation key)
// follows from one stable re-sort on the year alone — skipped entirely
// when years already ascend in citation order, the common corpus shape
// where volumes track years.
func loadCitationTrees(sorted []*workEntry) (byCitation, byYear *btree.Tree[*workEntry], citErr, yearErr error) {
	pairs := make([]btree.Pair[*workEntry], len(sorted))
	for i, we := range sorted {
		pairs[i] = btree.Pair[*workEntry]{Key: we.citKey(), Value: we}
	}
	byCitation, citErr = btree.BulkLoad(pairs)
	byYearEntries := sorted
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].w.Citation.Year > sorted[i].w.Citation.Year {
			byYearEntries = append([]*workEntry(nil), sorted...)
			slices.SortStableFunc(byYearEntries, func(a, b *workEntry) int {
				return cmp.Compare(a.w.Citation.Year, b.w.Citation.Year)
			})
			break
		}
	}
	yearPairs := make([]btree.Pair[*workEntry], len(byYearEntries))
	for i, we := range byYearEntries {
		yearPairs[i] = btree.Pair[*workEntry]{Key: we.key, Value: we}
	}
	byYear, yearErr = btree.BulkLoad(yearPairs)
	return byCitation, byYear, citErr, yearErr
}

// loadSubjects accumulates the subject postings in two passes: an
// input-order pass creates each posting (so its display form comes from
// the first work filing it, like sequential Adds) and memoizes each
// spelling's collation key, then a pass over the citation-sorted
// entries appends every ref already in key order — no per-posting sort
// at all, only an adjacent-duplicate drop — before the tree is built
// bottom-up.
func (e *Engine) loadSubjects(entries, sorted []*workEntry) (*btree.Tree[*subjectPosting], error) {
	postings := make(map[string]*subjectPosting)
	order := make([]string, 0, 64)
	// Subject headings repeat across a corpus far more than they vary;
	// memoize the collation key per distinct spelling.
	keyMemo := make(map[string]string)
	for _, we := range entries {
		for _, s := range we.w.Subjects {
			if _, ok := keyMemo[s]; ok {
				continue
			}
			key := string(collate.KeyString(s, e.coll))
			keyMemo[s] = key
			if _, ok := postings[key]; !ok {
				postings[key] = &subjectPosting{display: s}
				order = append(order, key)
			}
		}
	}
	for _, we := range sorted {
		for _, s := range we.w.Subjects {
			p := postings[keyMemo[s]]
			// A work listing one subject twice arrives adjacent (same
			// citation key); keep the first, exactly like insert would.
			if n := len(p.refs); n > 0 && p.refs[n-1] == we {
				continue
			}
			p.refs = append(p.refs, we)
		}
	}
	sort.Strings(order)
	pairs := make([]btree.Pair[*subjectPosting], len(order))
	for i, k := range order {
		pairs[i] = btree.Pair[*subjectPosting]{Key: []byte(k), Value: postings[k]}
	}
	return btree.BulkLoad(pairs)
}

// hasDuplicateIDs reports whether two works in the batch share an ID.
func hasDuplicateIDs(works []*model.Work) bool {
	seen := make(map[model.WorkID]struct{}, len(works))
	for _, w := range works {
		if _, dup := seen[w.ID]; dup {
			return true
		}
		seen[w.ID] = struct{}{}
	}
	return false
}

// Remove un-indexes the work with the given ID and reports whether it
// was indexed. The unlinked entry is left intact, never zeroed: a
// pinned snapshot may still hold it in its own trees and postings, and
// it becomes garbage once the last such snapshot is dropped.
func (e *Engine) Remove(id model.WorkID) bool {
	we, ok := e.byID.Get(idKey(id))
	if !ok {
		return false
	}
	defer mutRemove.Since(time.Now())
	w := we.w
	e.idx.Remove(w)
	e.inv.Remove(we, w.Title)
	e.byYear.Delete(we.key)
	e.byCitation.Delete(we.citKey())
	for _, s := range w.Subjects {
		key := collate.KeyString(s, e.coll)
		if p, ok := e.bySubject.Get(key); ok {
			if refs, changed := inverted.Without(p.refs, we, compareRefs); changed {
				if len(refs) == 0 {
					e.bySubject.Delete(key)
				} else {
					e.bySubject.Set(key, &subjectPosting{display: p.display, refs: refs})
				}
			}
		}
	}
	e.trkMu.Lock()
	e.met.Remove(w)
	e.trkMu.Unlock()
	e.byID.Delete(we.idKey())
	return true
}

// postingRun is one subject posting an AddBatch touches: the refs
// already filed under the heading (sorted, shared with snapshots, never
// written) and the batch's own entries, appended in batch order.
type postingRun struct {
	display string
	filed   []*workEntry
	run     []*workEntry
}

// merge returns a fresh posting holding the filed refs and the run in
// key order, through the same merge title terms file with. Keys end in
// the work ID, so equal keys are the same work — listed under two
// collation-equal subjects, or already filed — and only the first (the
// filed one, if any) is kept.
func (r *postingRun) merge() *subjectPosting {
	return &subjectPosting{display: r.display, refs: inverted.MergeRun(r.filed, r.run, compareRefs, nil)}
}

// Subjects returns every subject heading in collation order, with the
// number of works filed under each.
func (e *Engine) Subjects() []SubjectCount {
	var out []SubjectCount
	e.bySubject.Ascend(func(_ []byte, p *subjectPosting) bool {
		out = append(out, SubjectCount{Subject: p.display, Works: len(p.refs)})
		return true
	})
	return out
}

// SubjectCount pairs a subject heading with its work count.
type SubjectCount struct {
	Subject string
	Works   int
}

// BySubjectView returns live references to the works filed under a
// subject heading (matched under the engine's collation: case- and
// diacritic-insensitive), already in citation order and truncated to
// limit (<=0: no cap), cloning nothing. See TitleSearchView for the
// ownership rules.
func (e *Engine) BySubjectView(subject string, limit int) []*model.Work {
	e.qs.queries.Add(1)
	p, ok := e.bySubject.Get(collate.KeyString(subject, e.coll))
	if !ok {
		// The collation key includes original bytes at lower tiers, so an
		// exact Get only matches identical spellings; fall back to a scan
		// of the primary tier for case-insensitive matching.
		prefix := collate.PrimaryPrefix(subject, e.coll)
		e.bySubject.AscendPrefix(prefix, func(k []byte, cand *subjectPosting) bool {
			if bytes.Equal(collate.PrimaryPrefix(cand.display, e.coll), prefix) {
				p, ok = cand, true
				return false
			}
			return true
		})
		if !ok {
			return nil
		}
	}
	e.qs.scanned.Add(uint64(8 * len(p.refs)))
	return worksOf(truncateRefs(p.refs, limit))
}

// AllWorks returns copies of every indexed work, in ID order.
func (e *Engine) AllWorks() []*model.Work {
	return e.CloneWorks(e.AllWorksView())
}

// AllWorksView returns live references to every indexed work, in ID
// order — one byID ascent, no sort. See TitleSearchView for the
// ownership rules.
func (e *Engine) AllWorksView() []*model.Work {
	out := make([]*model.Work, 0, e.byID.Len())
	e.byID.Ascend(func(_ []byte, we *workEntry) bool {
		out = append(out, we.w)
		return true
	})
	return out
}

// Work returns a copy of the work with the given ID.
func (e *Engine) Work(id model.WorkID) (*model.Work, bool) {
	w, ok := e.WorkView(id)
	if !ok {
		return nil, false
	}
	return e.CloneWork(w), true
}

// WorkView returns a live reference to the work with the given ID. See
// TitleSearchView for the ownership rules.
func (e *Engine) WorkView(id model.WorkID) (*model.Work, bool) {
	we, ok := e.byID.Get(idKey(id))
	if !ok {
		return nil, false
	}
	return we.w, true
}

// AuthorExact looks up a heading by its index-order string, e.g.
// "Lewin, Jeff L." or "Abdalla, Tarek F.*". Like core.Index.Lookup it
// returns the live, frozen entry; callers must Clone what they hand out.
func (e *Engine) AuthorExact(heading string) (*core.Entry, bool) {
	a, err := names.Parse(heading)
	if err != nil {
		return nil, false
	}
	return e.idx.Lookup(a)
}

// AuthorPrefix returns up to limit entries whose heading starts with the
// folded prefix, in print order. limit <= 0 means no limit. The entries
// are live, frozen views: filed entries are never edited in place (a
// mutation files a copy), so they stay safe to read, but callers must
// not modify them and must Clone what they hand out. The facade clones
// only the page it returns.
func (e *Engine) AuthorPrefix(prefix string, limit int) []*core.Entry {
	var out []*core.Entry
	e.idx.AscendPrefix(prefix, func(entry *core.Entry) bool {
		out = append(out, entry)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// defaultAuthorPageLimit is the page size AuthorPage applies when the
// caller passes a non-positive limit.
const defaultAuthorPageLimit = 100

// AuthorPage returns up to limit entries strictly after the heading
// `after` (empty: from the start), in print order — a stable cursor for
// paging through the whole index. The next page's cursor is the last
// returned entry's Display() string. Like AuthorPrefix it returns live,
// frozen views.
func (e *Engine) AuthorPage(after string, limit int) []*core.Entry {
	var start model.Author
	if after != "" {
		a, err := names.Parse(after)
		if err != nil {
			return nil
		}
		start = a
	}
	if limit <= 0 {
		limit = defaultAuthorPageLimit
	}
	var out []*core.Entry
	e.idx.AscendAfter(start, func(entry *core.Entry) bool {
		out = append(out, entry)
		return len(out) < limit
	})
	return out
}

// TitleSearch evaluates a boolean title query ("surface mining",
// "coal or gas", "mining -surface", "reclam*") and returns copies of
// matching works in citation order, capped at limit (<=0: no cap).
func (e *Engine) TitleSearch(q string, limit int) []*model.Work {
	return e.CloneWorks(e.TitleSearchView(q, limit))
}

// TitleSearchView is TitleSearch without the deep copies: the returned
// works are live references owned by the engine, in citation order and
// truncated to limit before anything is copied.
//
// Ownership rules for every *View method: callers must treat the works
// as read-only and must deep-copy (CloneWorks) anything they hand out
// or mutate. Indexed works are immutable — replacement swaps in a new
// clone — so a view stays safe to read even after the caller's lock is
// released and a concurrent mutation has removed the work.
func (e *Engine) TitleSearchView(q string, limit int) []*model.Work {
	return e.TitleSearchViewCtx(context.Background(), q, limit)
}

// TitleSearchViewCtx is TitleSearchView carrying a trace context: the
// scan is one "engine.title_scan" span with the postings intersection
// recorded as a child, both annotated with result counts.
func (e *Engine) TitleSearchViewCtx(ctx context.Context, q string, limit int) []*model.Work {
	ctx, scan := trace.StartSpan(ctx, "engine.title_scan")
	defer scan.End()
	e.qs.queries.Add(1)
	_, isect := trace.StartSpan(ctx, "inverted.intersect")
	// Title postings are in citation order, so the first limit matches
	// are the answer: no lookup per match, no sort.
	refs, st := e.inv.EvalWithStats(inverted.ParseQuery(q), limit)
	isect.SetInt("postings_bytes", int64(st.PostingsBytes))
	isect.SetInt("matches", int64(st.Matches))
	isect.End()
	e.qs.scanned.Add(uint64(st.PostingsBytes))
	out := worksOf(refs)
	scan.SetInt("hits", int64(len(out)))
	return out
}

// YearRange returns copies of works published in [from, to] (inclusive),
// in citation order, capped at limit (<=0: no cap).
func (e *Engine) YearRange(from, to int, limit int) []*model.Work {
	return e.CloneWorks(e.YearRangeView(from, to, limit))
}

// YearRangeView is YearRange without the deep copies. See
// TitleSearchView for the ownership rules.
func (e *Engine) YearRangeView(from, to int, limit int) []*model.Work {
	if from > to {
		return nil
	}
	e.qs.queries.Add(1)
	// Each year's byYear run is already in citation order, so no year
	// can put more than its first limit works into the answer. The scan
	// takes at most limit per year: once a year has given limit, the
	// ascent restarts at the next year's first key. The per-year runs
	// may interleave in citation order, so the ≤ years×limit refs get
	// one key sort (free when they already ascend, as a single year
	// always does).
	var refs []*workEntry
	end := yearKeyMin(to + 1)
	for start := yearKeyMin(from); start != nil; {
		var year uint32
		n, next := 0, []byte(nil)
		e.byYear.AscendRange(start, end, func(k []byte, we *workEntry) bool {
			if y := binary.BigEndian.Uint32(k); n == 0 || y != year {
				year, n = y, 0
			}
			refs = append(refs, we)
			n++
			if limit > 0 && n >= limit && year < math.MaxUint32 {
				next = yearKeyMin(int(year) + 1)
				return false
			}
			return true
		})
		start = next
	}
	e.qs.scanned.Add(uint64(8 * len(refs)))
	sortRefs(refs)
	return worksOf(truncateRefs(refs, limit))
}

// VolumeView returns live references to the works of one volume. The
// byCitation tree leads with the volume, so the scan is already in
// citation order and stops as soon as limit works have been seen. See
// TitleSearchView for the ownership rules.
func (e *Engine) VolumeView(v, limit int) []*model.Work {
	e.qs.queries.Add(1)
	var refs []*workEntry
	e.byCitation.AscendRange(volumeKeyMin(v), volumeKeyMin(v+1), func(_ []byte, we *workEntry) bool {
		refs = append(refs, we)
		return limit <= 0 || len(refs) < limit
	})
	e.qs.scanned.Add(uint64(8 * len(refs)))
	return worksOf(refs)
}

// CloneWorks deep-copies a view into caller-owned works, counting the
// clones. It takes no engine lock and reads only immutable works, so
// the facade calls it after releasing its read lock.
func (e *Engine) CloneWorks(view []*model.Work) []*model.Work {
	if view == nil {
		return nil
	}
	out := make([]*model.Work, len(view))
	for i, w := range view {
		out[i] = w.Clone()
	}
	e.qs.cloned.Add(uint64(len(view)))
	return out
}

// CloneWork deep-copies one viewed work, counting the clone.
func (e *Engine) CloneWork(w *model.Work) *model.Work {
	e.qs.cloned.Add(1)
	return w.Clone()
}

// ReplaceTrackers swaps the tracker on this engine: one
// not-yet-published writer clone on the facade's rebuild path. The
// facade builds the replacement aside from the full corpus, then calls
// this on the clone before publishing it, so concurrent tracker readers
// keep a consistent (old) view until the swap.
func (e *Engine) ReplaceTrackers(met *metrics.Engine) {
	e.trkMu.Lock()
	e.met = met
	e.trkMu.Unlock()
}

// Metrics exposes the tracker. It is shared and mutable across clones:
// callers outside the writer mutex must go through the locked
// wrappers (MetricsSummary, AuthorMetrics, TopAuthors) or ReadTrackers
// instead.
func (e *Engine) Metrics() *metrics.Engine { return e.met }

// MetricsSummary returns the corpus-wide bibliometrics summary under
// the shared tracker read lock.
func (e *Engine) MetricsSummary() metrics.Summary {
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Summary()
}

// ReadTrackers runs fn with the shared tracker read lock held, handing
// it the tracker (whose Graph is the coauthorship network). Lock-free
// snapshot readers that need multiple tracker reads to be mutually
// consistent (rendering appendices, stats aggregation) use this instead
// of the individual wrappers.
func (e *Engine) ReadTrackers(fn func(met *metrics.Engine)) {
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	fn(e.met)
}

// AuthorMetrics returns the bibliometrics snapshot for one heading
// given in index-order form, e.g. "Lewin, Jeff L.".
func (e *Engine) AuthorMetrics(heading string) (metrics.AuthorMetrics, bool) {
	a, err := names.Parse(heading)
	if err != nil {
		return metrics.AuthorMetrics{}, false
	}
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Author(a.Display())
}

// TopAuthors returns up to limit author snapshots ranked by the given
// key, best first. ByCentrality is resolved against the coauthorship
// graph's PageRank; every other key goes straight to the tracker.
func (e *Engine) TopAuthors(by metrics.RankKey, limit int) []metrics.AuthorMetrics {
	limit = ClampLimit(limit, 10)
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	if by == metrics.ByCentrality {
		central := e.met.Graph().TopCentral(limit)
		out := make([]metrics.AuthorMetrics, 0, len(central))
		for _, c := range central {
			if m, ok := e.met.Author(c.Heading); ok {
				out = append(out, m)
			}
		}
		return out
	}
	return e.met.TopAuthors(by, limit)
}

// Graph exposes the coauthorship network the tracker owns. Shared and
// mutable across clones, like Metrics — callers outside the writer
// mutex go through the locked wrappers or ReadTrackers.
func (e *Engine) Graph() *graph.Graph { return e.met.Graph() }

// GraphNeighbors returns a heading's coauthors, strongest tie first,
// under the shared tracker read lock.
func (e *Engine) GraphNeighbors(heading string) []graph.Neighbor {
	a, err := names.Parse(heading)
	if err != nil {
		return nil
	}
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Graph().Neighbors(a.Display())
}

// GraphSummary returns the coauthorship network summary under the
// shared tracker read lock.
func (e *Engine) GraphSummary() graph.Summary {
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Graph().Summarize()
}

// TopCentral returns the limit most central authors under the shared
// tracker read lock.
func (e *Engine) TopCentral(limit int) []graph.CentralAuthor {
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Graph().TopCentral(limit)
}

// GraphCounts returns the network's node, edge and component counts
// under the shared tracker read lock.
func (e *Engine) GraphCounts() (nodes, edges, components int) {
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Graph().Nodes(), e.met.Graph().Edges(), e.met.Graph().Components()
}

// CollaborationPath returns the shortest coauthorship chain between two
// headings given in index-order form, endpoints included. false when
// either heading is unknown or they are in different components.
func (e *Engine) CollaborationPath(from, to string) ([]string, bool) {
	fa, err := names.Parse(from)
	if err != nil {
		return nil, false
	}
	ta, err := names.Parse(to)
	if err != nil {
		return nil, false
	}
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Graph().Path(fa.Display(), ta.Display())
}

// Centrality returns a heading's PageRank score in the coauthorship
// network.
func (e *Engine) Centrality(heading string) (float64, bool) {
	a, err := names.Parse(heading)
	if err != nil {
		return 0, false
	}
	e.trkMu.RLock()
	defer e.trkMu.RUnlock()
	return e.met.Graph().Centrality(a.Display())
}

// CorpusFingerprint hashes the engine's corpus — every work ID and
// citation key in ID order, plus the author-heading and title-term
// counts — into one FNV-1a value. Two calls on the same frozen snapshot
// always agree no matter how far the live engine has moved on; the
// concurrency hammer pins a snapshot and asserts exactly that.
func (e *Engine) CorpusFingerprint() uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
	}
	e.byID.Ascend(func(k []byte, we *workEntry) bool {
		mix(k)
		mix(we.citKey())
		return true
	})
	h ^= uint64(e.idx.Len())
	h *= prime64
	h ^= uint64(e.inv.Terms())
	h *= prime64
	return h
}

// WorkFingerprint hashes one work's indexed identity — its ID key and
// citation key — with FNV-1a. XOR over a corpus is order-independent,
// so Verify folds it over the store as it streams and compares the
// result with XorFingerprint, without gathering the corpus in one
// place.
func WorkFingerprint(w *model.Work) uint64 {
	return fingerprintKeys(idKey(w.ID), citationKey(w))
}

func fingerprintKeys(idk, citk []byte) uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for _, c := range idk {
		h ^= uint64(c)
		h *= prime64
	}
	for _, c := range citk {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// XorFingerprint XORs WorkFingerprint over every indexed work, reusing
// the precomputed keys. Two calls on the same frozen snapshot always
// agree.
func (e *Engine) XorFingerprint() uint64 {
	var x uint64
	e.byID.Ascend(func(k []byte, we *workEntry) bool {
		x ^= fingerprintKeys(k, we.citKey())
		return true
	})
	return x
}

// queryCounters is the engine-internal mutable form of QueryStats.
// Counters are atomic because facade reads run concurrently and
// lock-free; the struct is shared by pointer across engine clones so
// the totals span every snapshot.
type queryCounters struct {
	queries atomic.Uint64
	cloned  atomic.Uint64
	scanned atomic.Uint64
}

// QueryStats counts read-path work since the engine was created.
type QueryStats struct {
	// Queries is the number of ordered read queries served (title
	// search, year range, volume and subject lookups).
	Queries uint64
	// WorksCloned is the number of result works deep-copied for
	// callers. The zero-copy read path keeps this near the number of
	// works actually returned, not the number matched.
	WorksCloned uint64
	// PostingsBytes is the volume of posting entries examined while
	// answering queries (8 bytes per posting visited).
	PostingsBytes uint64
}

// QueryStats returns a snapshot of the read-path counters. Safe to call
// concurrently with reads.
func (e *Engine) QueryStats() QueryStats {
	return QueryStats{
		Queries:       e.qs.queries.Load(),
		WorksCloned:   e.qs.cloned.Load(),
		PostingsBytes: e.qs.scanned.Load(),
	}
}

// Stats aggregates counters across all indexes.
type Stats struct {
	core.Stats
	Works int        // indexed works
	Terms int        // distinct title terms in the inverted index
	Query QueryStats // read-path counters
}

// Stats returns current counters. Works counts the byID tree: every
// work has at least one author, so it is also the number of distinct
// works the author index files.
func (e *Engine) Stats() Stats {
	return Stats{Stats: e.idx.Stats(), Works: e.byID.Len(), Terms: e.inv.Terms(), Query: e.QueryStats()}
}

// sortRefs orders refs by their precomputed citation keys. The check
// pass makes already-ordered inputs (single-year scans, year ranges
// whose volumes track years) free; unordered inputs pay one memcmp
// sort — no Citation.Compare calls, no clones.
func sortRefs(refs []*workEntry) {
	if !slices.IsSortedFunc(refs, compareRefs) {
		slices.SortFunc(refs, compareRefs)
	}
}

// truncateRefs caps refs at limit (<=0: no cap) without copying.
func truncateRefs(refs []*workEntry, limit int) []*workEntry {
	if limit > 0 && len(refs) > limit {
		return refs[:limit]
	}
	return refs
}

// worksOf projects entries onto their works. The result is a fresh
// slice (so posting arrays never escape) holding live references.
func worksOf(refs []*workEntry) []*model.Work {
	out := make([]*model.Work, len(refs))
	for i, we := range refs {
		out[i] = we.w
	}
	return out
}

// citationKey returns the precomputed read-path sort key:
//
//	volume(8) ‖ page(8) ‖ year(4) ‖ title (NUL-escaped) ‖ 0x00 0x00 ‖ id(8)
//
// all big-endian, so bytes.Compare orders keys exactly as the classic
// comparator did: Citation.Compare, then title, then ID. A 0x00 title
// byte is escaped to 0x00 0x01 so the 0x00 0x00 terminator cannot be
// confused with title content, keeping prefix titles ("abc" vs "abcd")
// ordered correctly regardless of the ID bytes that follow.
func citationKey(w *model.Work) []byte { return entryKey(w)[4:] }

// entryKey builds a workEntry's key buffer, year(4) ‖ citationKey(w),
// in one exactly sized allocation: the byYear key, whose year prefix
// groups a scan by year and orders it by citation within each year.
func entryKey(w *model.Work) []byte {
	n := 4 + 20 + len(w.Title) + strings.Count(w.Title, "\x00") + 2 + 8
	k := make([]byte, 24, n)
	binary.BigEndian.PutUint32(k[0:4], uint32(w.Citation.Year))
	binary.BigEndian.PutUint64(k[4:12], uint64(w.Citation.Volume))
	binary.BigEndian.PutUint64(k[12:20], uint64(w.Citation.Page))
	binary.BigEndian.PutUint32(k[20:24], uint32(w.Citation.Year))
	for i := 0; i < len(w.Title); i++ {
		b := w.Title[i]
		k = append(k, b)
		if b == 0 {
			k = append(k, 1)
		}
	}
	k = append(k, 0, 0)
	return binary.BigEndian.AppendUint64(k, uint64(w.ID))
}

// idKey is the byID tree key: the work ID, big-endian, so the tree
// ascends in ID order.
func idKey(id model.WorkID) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(id))
	return k[:]
}

// yearKeyMin is the smallest byYear key for the given year.
func yearKeyMin(year int) []byte {
	var k [4]byte
	binary.BigEndian.PutUint32(k[:], uint32(year))
	return k[:]
}

// volumeKeyMin is the smallest citation key for the given volume.
func volumeKeyMin(v int) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(v))
	return k[:]
}
