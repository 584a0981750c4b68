package authorindex

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collate"
	"repro/internal/query"
	"repro/internal/render"
)

// Copy-on-write snapshot reads through one atomic root.
//
// The index is one query.Engine. Every committed write publishes a
// fresh immutable snapshot of it: the writer, serialized by the index's
// one writer mutex, clones the current engine in O(1), mutates the
// clone — path-copying only the index nodes it touches — and publishes
// it in one new root with one atomic pointer store. Readers never take
// a lock: they load the current root, run against its frozen engine,
// and drop it. A loaded root is one committed state, so a batch is
// visible to a reader entirely or not at all. Replaced roots are
// reclaimed by the garbage collector once no reader holds them.
//
// A root also memoizes the front matter's title order and subject
// groups: the first title or subject index rendered from a root sorts
// or groups its works once, and every later one of that root reuses
// the result. A write publishes a new root with an empty memo, so
// writers pay nothing and the memo is dropped with its root.

// root is one published snapshot of the engine. It is immutable:
// neither it nor the engine it holds changes after publication, bar
// the memo, which is filled at most once, from the engine.
type root struct {
	// Seq increments per publication; traces record it as the epoch
	// that served a read, so a slow read can be correlated with the
	// snapshot that served it.
	Seq uint64
	// Eng is the engine every read of this root runs against.
	Eng *query.Engine
	// live carries the finalizer that counts this root as collected.
	// The finalizer sits on this small sentinel rather than on the root
	// so the root's engine is freed in the same cycle that drops it.
	live *sentinel

	titleOnce, subjectOnce sync.Once
	titleOrder             render.TitleOrder
	subjectGroups          render.SubjectGroups
}

// titles returns the root's works in title-index order, sorting them on
// the first call. coll is the index's collation, fixed at Open.
func (r *root) titles(coll collate.Options) render.TitleOrder {
	r.titleOnce.Do(func() { r.titleOrder = render.SortTitles(r.Eng.AllWorksView(), coll) })
	return r.titleOrder
}

// subjects returns the root's works grouped for the subject index,
// grouping them on the first call.
func (r *root) subjects(coll collate.Options) render.SubjectGroups {
	r.subjectOnce.Do(func() { r.subjectGroups = render.GroupSubjects(r.Eng.AllWorksView(), coll) })
	return r.subjectGroups
}

// sentinel points at the index's live-root counter, which is allocated
// apart from the Index: a pointer into the Index would close a cycle
// from the current root back to its own sentinel, and a cycle holding a
// finalizer is never collected.
type sentinel struct{ alive *atomic.Int64 }

// publish makes eng the current engine in a new root. Callers hold the
// writer mutex (Open excepted: it publishes before the index is
// visible). start marks when the writer began the copy-on-write
// turnover (clone + index mutation), and a publish that replaces a root
// records the time since as one snapshot-swap sample: the full snapshot
// overhead a write pays on top of its store commit. Open's first root
// replaces none and records nothing.
func (ix *Index) publish(start time.Time, eng *query.Engine) {
	s := &sentinel{alive: ix.alive}
	ix.alive.Add(1)
	runtime.SetFinalizer(s, func(s *sentinel) { s.alive.Add(-1) })
	next := &root{Seq: 1, Eng: eng, live: s}
	if cur := ix.root.Load(); cur != nil {
		next.Seq = cur.Seq + 1
		defer ix.swap.Since(start)
	}
	ix.root.Store(next)
}

// engine returns the current root's engine. Writers holding the mutex
// read it as the head they clone; everyone else gets a frozen snapshot
// valid for as long as they hold it.
func (ix *Index) engine() *query.Engine { return ix.root.Load().Eng }

// EpochsAlive reports how many published snapshot roots the garbage
// collector has not yet collected. Quiescent value is 1 (the current
// root); anything above that is roots held by in-flight readers or
// awaiting the next collection cycle.
func (ix *Index) EpochsAlive() int64 { return ix.alive.Load() }
