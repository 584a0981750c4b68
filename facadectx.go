package authorindex

import (
	"context"
	"errors"
	"io"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Ctx variants of the facade entry points. Each wraps its operation in
// one facade span annotated with the snapshot epoch (root sequence)
// that served it. Reads load the current root and run lock-free, so
// their engine spans nest under the facade span — there is no lock wait
// to record. Span shape does not depend on the shard count: an ordered
// read records one facade.shard_scan child per shard (one at shards=1),
// and a render gathers render.sections before it encodes. Writes
// serialize only on the mutexes of the shards they touch: their spans
// keep the lock.wait / lock.hold children (which parent the store/WAL
// spans) plus the copy-on-write turnover measured by the per-shard
// snapshot-swap histograms. The non-ctx methods delegate through
// context.Background(), which is the zero-allocation disabled path.

// degradedAttr marks a write span whose commit was refused by the
// degraded latch, so captured traces show the failure class at a
// glance.
func degradedAttr(sp *trace.Span, err error) {
	if errors.Is(err, ErrDegraded) {
		sp.SetAttr("degraded", "true")
	}
}

// lockShardsTraced locks the given shards — ascending IDs, the global
// lock order — recording the wait as one lock.wait child span and
// opening the lock.hold span. The returned context parents the store
// work under the hold span; the caller must End it right after
// unlockShards.
func (ix *Index) lockShardsTraced(ctx context.Context, ids []int) (context.Context, *trace.Span) {
	sp := trace.FromContext(ctx)
	wait := sp.StartChild("lock.wait")
	for _, si := range ids {
		ix.shards.Shard(si).Lock()
	}
	wait.End()
	hold := sp.StartChild("lock.hold")
	hold.SetInt("shards", int64(len(ids)))
	return trace.ContextWith(ctx, hold), hold
}

// unlockShards releases locks taken by lockShardsTraced.
func (ix *Index) unlockShards(ids []int) {
	for i := len(ids) - 1; i >= 0; i-- {
		ix.shards.Shard(ids[i]).Unlock()
	}
}

// loadTraced loads the current root and stamps its sequence and shard
// count on the span.
func (ix *Index) loadTraced(sp *trace.Span) *shard.Root {
	r := ix.shards.Load()
	sp.SetInt("epoch", int64(r.Seq))
	sp.SetInt("shards", int64(len(r.Engs)))
	return r
}

// cloneTraced deep-copies a view under a facade.clone span. Views hold
// immutable works, so the copy needs no snapshot.
func cloneTraced(ctx context.Context, eng *query.Engine, view []*model.Work) []*Work {
	_, sp := trace.StartSpan(ctx, "facade.clone")
	out := eng.CloneWorks(view)
	sp.SetInt("works", int64(len(out)))
	sp.End()
	return out
}

// scatterWorks fans one ordered read out across every shard of a root
// and k-way merges the per-shard views — each already citation-ordered
// and truncated by its engine — into one view capped at limit. Each
// shard's query runs under its own facade.shard_scan span. At one shard
// Gather runs the query inline and MergeWorks passes its view through.
func scatterWorks(ctx context.Context, r *shard.Root, limit int, fn func(ctx context.Context, eng *query.Engine) []*model.Work) []*model.Work {
	parts := shard.Gather(r.Engs, func(i int, eng *query.Engine) []*model.Work {
		sctx, ssp := trace.StartSpan(ctx, "facade.shard_scan")
		ssp.SetInt("shard", int64(i))
		ssp.SetInt("epoch", int64(r.Seq))
		defer ssp.End()
		return fn(sctx, eng)
	})
	return shard.MergeWorks(parts, limit)
}

// SearchCtx is Search carrying a trace context.
func (ix *Index) SearchCtx(ctx context.Context, q string, limit int) []*Work {
	defer ix.timeOp(opSearch)()
	ctx, sp := trace.StartSpan(ctx, "facade.search")
	defer sp.End()
	r := ix.loadTraced(sp)
	view := scatterWorks(ctx, r, limit, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.TitleSearchViewCtx(ctx, q, limit)
	})
	return cloneTraced(ctx, r.Engs[0], view)
}

// YearRangeCtx is YearRange carrying a trace context.
func (ix *Index) YearRangeCtx(ctx context.Context, from, to, limit int) []*Work {
	defer ix.timeOp(opYearRange)()
	ctx, sp := trace.StartSpan(ctx, "facade.year_range")
	defer sp.End()
	r := ix.loadTraced(sp)
	view := scatterWorks(ctx, r, limit, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.YearRangeViewCtx(ctx, from, to, limit)
	})
	return cloneTraced(ctx, r.Engs[0], view)
}

// VolumeWorksCtx is VolumeWorks carrying a trace context.
func (ix *Index) VolumeWorksCtx(ctx context.Context, vol, limit int) []*Work {
	ctx, sp := trace.StartSpan(ctx, "facade.volume")
	defer sp.End()
	r := ix.loadTraced(sp)
	view := scatterWorks(ctx, r, limit, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.VolumeViewCtx(ctx, vol, limit)
	})
	return cloneTraced(ctx, r.Engs[0], view)
}

// BySubjectCtx is BySubject carrying a trace context.
func (ix *Index) BySubjectCtx(ctx context.Context, subject string, limit int) []*Work {
	defer ix.timeOp(opBySubject)()
	ctx, sp := trace.StartSpan(ctx, "facade.by_subject")
	defer sp.End()
	r := ix.loadTraced(sp)
	view := scatterWorks(ctx, r, limit, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.BySubjectViewCtx(ctx, subject, limit)
	})
	return cloneTraced(ctx, r.Engs[0], view)
}

// GetCtx is Get carrying a trace context. A point lookup routes to the
// work's home shard — no fan-out.
func (ix *Index) GetCtx(ctx context.Context, id WorkID) (*Work, bool) {
	defer ix.timeOp(opGet)()
	_, sp := trace.StartSpan(ctx, "facade.get")
	defer sp.End()
	si := ix.shards.ForWork(id)
	r := ix.shards.Load()
	sp.SetInt("epoch", int64(r.Seq))
	sp.SetInt("shard", int64(si))
	eng := r.Engs[si]
	w, ok := eng.WorkView(id)
	if !ok {
		return nil, false
	}
	return eng.CloneWork(w), true
}

// AuthorsCtx is Authors carrying a trace context.
func (ix *Index) AuthorsCtx(ctx context.Context, prefix string, limit int) []*Entry {
	_, sp := trace.StartSpan(ctx, "facade.authors")
	defer sp.End()
	parts := shard.Gather(ix.loadTraced(sp).Engs, func(_ int, eng *query.Engine) []*Entry {
		return eng.AuthorPrefix(prefix, limit)
	})
	out := shard.MergeEntries(parts, ix.coll, limit)
	sp.SetInt("entries", int64(len(out)))
	return out
}

// AuthorsPageCtx is AuthorsPage carrying a trace context.
func (ix *Index) AuthorsPageCtx(ctx context.Context, after string, limit int) []*Entry {
	_, sp := trace.StartSpan(ctx, "facade.authors_page")
	defer sp.End()
	if limit <= 0 {
		limit = query.DefaultAuthorPageLimit // applied pre-merge
	}
	parts := shard.Gather(ix.loadTraced(sp).Engs, func(_ int, eng *query.Engine) []*Entry {
		return eng.AuthorPage(after, limit)
	})
	// A heading split across shards collapses into one merged entry, so
	// a page can come up slightly short of limit; the cursor contract
	// (resume from the last returned heading) still holds.
	out := shard.MergeEntries(parts, ix.coll, limit)
	sp.SetInt("entries", int64(len(out)))
	return out
}

// TopAuthorsCtx is TopAuthors carrying a trace context. Rankings come
// from the corpus-global metrics tracker, so one shard answers.
func (ix *Index) TopAuthorsCtx(ctx context.Context, by RankKey, limit int) []AuthorMetrics {
	_, sp := trace.StartSpan(ctx, "facade.rank")
	defer sp.End()
	r := ix.shards.Load()
	sp.SetInt("epoch", int64(r.Seq))
	out := r.Engs[0].TopAuthors(by, limit)
	sp.SetInt("authors", int64(len(out)))
	return out
}

// TopCentralCtx is TopCentral carrying a trace context. Centrality
// comes from the corpus-global coauthorship graph, so one shard
// answers.
func (ix *Index) TopCentralCtx(ctx context.Context, limit int) []CentralAuthor {
	_, sp := trace.StartSpan(ctx, "facade.central")
	defer sp.End()
	r := ix.shards.Load()
	sp.SetInt("epoch", int64(r.Seq))
	out := r.Engs[0].TopCentral(ClampLimit(limit, 10))
	sp.SetInt("authors", int64(len(out)))
	return out
}

// AddCtx is Add carrying a trace context: the facade.add span over
// the same group commit AddBatchCtx runs, with one work.
func (ix *Index) AddCtx(ctx context.Context, w Work) (WorkID, error) {
	defer ix.timeOp(opAdd)()
	ctx, sp := trace.StartSpan(ctx, "facade.add")
	defer sp.End()
	ids, err := ix.commitAdds(ctx, sp, []Work{w})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddBatchCtx is AddBatch carrying a trace context; the group commit
// (one WAL append, one fsync) and the index pass over the touched
// shards both nest under lock.hold.
func (ix *Index) AddBatchCtx(ctx context.Context, works []Work) ([]WorkID, error) {
	if len(works) == 0 {
		return nil, nil
	}
	defer ix.timeOp(opAddBatch)()
	ctx, sp := trace.StartSpan(ctx, "facade.add_batch")
	sp.SetInt("works", int64(len(works)))
	defer sp.End()
	return ix.commitAdds(ctx, sp, works)
}

// commitAdds is the one write path for works: validate and reserve
// IDs, commit the store, then index every touched shard's group into a
// clone and publish all clones in one root.
func (ix *Index) commitAdds(ctx context.Context, sp *trace.Span, works []Work) ([]WorkID, error) {
	batch := make([]*model.Work, len(works))
	for i := range works {
		cp := works[i]
		batch[i] = &cp
	}
	// Reserve the batch's IDs before committing anything: fresh IDs
	// cannot be contended (the counter only moves forward) and explicit
	// IDs keep theirs, so every home shard is known — and can be locked —
	// before the store commit. The shard locks must bracket the commit
	// and the publish: otherwise two writers on the same explicit ID
	// could commit to the store in one order and publish to the shard
	// engines in the other, leaving store and index permanently
	// divergent.
	ids, err := ix.store.ReserveBatchIDs(batch)
	if err != nil {
		degradedAttr(sp, err)
		return nil, err
	}
	groups := make(map[int][]*model.Work)
	for i, w := range batch {
		w.ID = ids[i]
		si := ix.shards.ForWork(w.ID)
		groups[si] = append(groups[si], w)
	}
	touched := sortedShards(groups)
	hctx, hold := ix.lockShardsTraced(ctx, touched)
	defer hold.End()
	defer ix.unlockShards(touched)
	if _, err := ix.store.PutBatchCtx(hctx, batch); err != nil {
		degradedAttr(sp, err)
		return nil, err
	}
	start := time.Now()
	clones := make(map[int]*query.Engine, len(touched))
	for _, si := range touched {
		eng := ix.shards.Shard(si).Head().Clone()
		if err := eng.AddBatch(groups[si]); err != nil {
			// The store validated every work, and validation is all
			// the engine can reject, so this cannot happen. Should it,
			// the disk holds a commit memory lacks: latch read-only and
			// publish nothing; a reopen rebuilds from disk.
			ix.store.Degrade(err)
			return nil, err
		}
		clones[si] = eng
	}
	ix.publish(start, clones)
	return ids, nil
}

// DeleteCtx is Delete carrying a trace context: the facade.delete span
// over the same group commit DeleteBatchCtx runs, with one ID.
func (ix *Index) DeleteCtx(ctx context.Context, id WorkID) error {
	defer ix.timeOp(opDelete)()
	ctx, sp := trace.StartSpan(ctx, "facade.delete")
	defer sp.End()
	return ix.commitDeletes(ctx, sp, []WorkID{id})
}

// DeleteBatchCtx is DeleteBatch carrying a trace context.
func (ix *Index) DeleteBatchCtx(ctx context.Context, ids []WorkID) error {
	if len(ids) == 0 {
		return nil
	}
	defer ix.timeOp(opDeleteBatch)()
	ctx, sp := trace.StartSpan(ctx, "facade.delete_batch")
	sp.SetInt("works", int64(len(ids)))
	defer sp.End()
	return ix.commitDeletes(ctx, sp, ids)
}

// commitDeletes is the one delete path: lock the touched shards, commit
// the store, then unindex every group in a clone and publish all clones
// in one root.
func (ix *Index) commitDeletes(ctx context.Context, sp *trace.Span, ids []WorkID) error {
	groups := make(map[int][]WorkID)
	for _, id := range ids {
		si := ix.shards.ForWork(id)
		groups[si] = append(groups[si], id)
	}
	touched := sortedShards(groups)
	_, hold := ix.lockShardsTraced(ctx, touched)
	defer hold.End()
	defer ix.unlockShards(touched)
	if err := ix.store.DeleteBatch(ids); err != nil {
		degradedAttr(sp, err)
		return err
	}
	start := time.Now()
	clones := make(map[int]*query.Engine, len(touched))
	for _, si := range touched {
		eng := ix.shards.Shard(si).Head().Clone()
		for _, id := range groups[si] {
			eng.Remove(id)
		}
		maybeCompactArena(eng)
		clones[si] = eng
	}
	ix.publish(start, clones)
	return nil
}

// sortedShards returns the shard IDs a write's groups touch in
// ascending order, the global lock order.
func sortedShards[T any](groups map[int][]T) []int {
	touched := make([]int, 0, len(groups))
	for si := range groups {
		touched = append(touched, si)
	}
	sort.Ints(touched)
	return touched
}

// maybeCompactArena compacts the writer clone's bulk-load arena when
// the dead-slot ratio crosses the threshold, so delete-heavy workloads
// stop pinning removed works once the pre-compaction snapshots drain.
// It runs on the not-yet-published clone, where rebuilding the slab is
// invisible to readers.
func maybeCompactArena(eng *query.Engine) {
	if total, dead := eng.ArenaStats(); total > 0 && float64(dead) >= query.ArenaCompactRatio*float64(total) {
		eng.CompactArena()
	}
}

// appendixLimit normalizes a render appendix limit through the shared
// clamp: non-positive values mean the documented default of 10, and
// explicit values clamp to MaxLimit like every other caller-supplied
// limit. (An earlier version passed min(limit, MaxLimit) straight
// through, relying on each builder to re-default non-positives.)
func appendixLimit(n int) int {
	if n <= 0 {
		return 10
	}
	return ClampLimit(n, 10)
}

// RenderCtx is Render carrying a trace context: appendix building and
// the render itself (sections, per-letter text output) record child
// spans, and a canceled ctx aborts the render between sections. The
// whole render runs against one snapshot root, so a long render holds
// that root alive — but blocks no writer — for the duration. Per-shard
// sections are gathered and merged in print order under a
// render.sections span, then encoded under a render span.
func (ix *Index) RenderCtx(ctx context.Context, w io.Writer, opts RenderOptions) error {
	defer ix.timeOp(opRender)()
	ctx, sp := trace.StartSpan(ctx, "facade.render")
	defer sp.End()
	engs := ix.loadTraced(sp).Engs
	e0 := engs[0]
	if opts.Network && opts.NetworkAppendix == nil && render.NetworkSupported(opts.Format) {
		_, nsp := trace.StartSpan(ctx, "render.network_appendix")
		e0.ReadTrackers(func(_ metrics.Tracker, gr *graph.Graph) {
			opts.NetworkAppendix = render.BuildNetwork(gr, appendixLimit(opts.NetworkLimit))
		})
		nsp.End()
	}
	if opts.Statistics && opts.Appendix == nil && render.StatisticsSupported(opts.Format) {
		_, ssp := trace.StartSpan(ctx, "render.stats_appendix")
		e0.ReadTrackers(func(met metrics.Tracker, _ *graph.Graph) {
			opts.Appendix = render.BuildStatistics(met, appendixLimit(opts.StatsLimit))
		})
		ssp.End()
	}
	_, secSpan := trace.StartSpan(ctx, "render.sections")
	parts := shard.Gather(engs, func(_ int, eng *query.Engine) []Section {
		return eng.Index().Sections()
	})
	sections := shard.MergeSections(parts, ix.coll)
	secSpan.SetInt("sections", int64(len(sections)))
	secSpan.End()
	return render.RenderSectionsCtx(ctx, w, sections, opts)
}
