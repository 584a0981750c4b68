package authorindex

import (
	"context"
	"errors"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/trace"
)

// Ctx variants of the facade entry points. Each times its operation
// with one trace.Timer: one authdex_op_duration_seconds sample, and
// under a trace the facade span, stamped with the snapshot epoch (root
// sequence) that served it. Reads load the current root and run
// lock-free, so their engine spans nest under the facade span, and a
// render records render.sections before it encodes. Writes serialize
// on the writer mutex: the lock.wait timer (a span and a lock-wait
// sample) and the lock.hold timer (a span and a lock-hold sample)
// parent the store/WAL spans, and the copy-on-write turnover is a
// snapshot-swap sample. The non-ctx
// methods pass context.Background(), which allocates nothing.

// degradedAttr marks a write span whose commit was refused by the
// degraded latch, so captured traces show the failure class at a
// glance.
func degradedAttr(sp *trace.Span, err error) {
	if errors.Is(err, ErrDegraded) {
		sp.SetAttr("degraded", "true")
	}
}

// lockTraced takes the writer mutex, timing the wait as lock.wait, and
// starts timing the hold as lock.hold into hold, one of ix.hold's
// histograms; the returned context carries the lock.hold span, and the
// caller must End the timer right after unlocking.
func (ix *Index) lockTraced(ctx context.Context, hold *obs.Histogram) (context.Context, trace.Timer) {
	_, wait := trace.Time(ctx, "lock.wait", &ix.lockWait)
	ix.mu.Lock()
	wait.End()
	return trace.Time(ctx, "lock.hold", hold)
}

// loadTraced loads the current root and stamps its sequence on the
// span.
func (ix *Index) loadTraced(sp *trace.Span) *root {
	r := ix.root.Load()
	sp.SetInt("epoch", int64(r.Seq))
	return r
}

// readWorks is the path of every ordered work read. It times the read
// as op under the facade span name, runs the query against the current
// root's engine — whose view comes back citation-ordered and truncated
// — and deep-copies that view under a facade.clone span; views hold
// immutable works, so the copy needs no snapshot.
func (ix *Index) readWorks(ctx context.Context, name string, o op, fn func(ctx context.Context, eng *query.Engine) []*model.Work) []*Work {
	ctx, tm := trace.Time(ctx, name, &ix.ops[o])
	defer tm.End()
	eng := ix.loadTraced(tm.Span).Eng
	view := fn(ctx, eng)
	_, csp := trace.StartSpan(ctx, "facade.clone")
	out := eng.CloneWorks(view)
	csp.SetInt("works", int64(len(out)))
	csp.End()
	return out
}

// SearchCtx is Search carrying a trace context.
func (ix *Index) SearchCtx(ctx context.Context, q string, limit int) []*Work {
	return ix.readWorks(ctx, "facade.search", opSearch, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.TitleSearchView(ctx, q, limit)
	})
}

// YearRangeCtx is YearRange carrying a trace context.
func (ix *Index) YearRangeCtx(ctx context.Context, from, to, limit int) []*Work {
	return ix.readWorks(ctx, "facade.year_range", opYearRange, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.YearRangeView(ctx, from, to, limit)
	})
}

// VolumeWorksCtx is VolumeWorks carrying a trace context.
func (ix *Index) VolumeWorksCtx(ctx context.Context, vol, limit int) []*Work {
	return ix.readWorks(ctx, "facade.volume", opVolume, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.VolumeView(ctx, vol, limit)
	})
}

// BySubjectCtx is BySubject carrying a trace context.
func (ix *Index) BySubjectCtx(ctx context.Context, subject string, limit int) []*Work {
	return ix.readWorks(ctx, "facade.by_subject", opBySubject, func(ctx context.Context, eng *query.Engine) []*model.Work {
		return eng.BySubjectView(ctx, subject, limit)
	})
}

// GetCtx is Get carrying a trace context.
func (ix *Index) GetCtx(ctx context.Context, id WorkID) (*Work, bool) {
	_, tm := trace.Time(ctx, "facade.get", &ix.ops[opGet])
	defer tm.End()
	eng := ix.loadTraced(tm.Span).Eng
	w, ok := eng.WorkView(id)
	if !ok {
		return nil, false
	}
	return eng.CloneWork(w), true
}

// readEntries is the path of every author read. Timed as op under the
// facade span name, it runs the query against the current root's
// engine and deep-copies the live entries it returns: the one copy an
// author read makes.
func (ix *Index) readEntries(ctx context.Context, name string, o op, fn func(eng *query.Engine) []*Entry) []*Entry {
	_, tm := trace.Time(ctx, name, &ix.ops[o])
	defer tm.End()
	out := cloneEntries(fn(ix.loadTraced(tm.Span).Eng))
	tm.Span.SetInt("entries", int64(len(out)))
	return out
}

// AuthorsCtx is Authors carrying a trace context.
func (ix *Index) AuthorsCtx(ctx context.Context, prefix string, limit int) []*Entry {
	return ix.readEntries(ctx, "facade.authors", opAuthors, func(eng *query.Engine) []*Entry {
		return eng.AuthorPrefix(prefix, limit)
	})
}

// AuthorsPageCtx is AuthorsPage carrying a trace context.
func (ix *Index) AuthorsPageCtx(ctx context.Context, after string, limit int) []*Entry {
	return ix.readEntries(ctx, "facade.authors_page", opAuthorsPage, func(eng *query.Engine) []*Entry {
		return eng.AuthorPage(after, limit)
	})
}

// cloneEntries deep-copies a page of engine views in place, so the
// caller owns every entry it gets and only the returned page is ever
// copied.
func cloneEntries(page []*Entry) []*Entry {
	for i, e := range page {
		page[i] = e.Clone()
	}
	return page
}

// TopAuthorsCtx is TopAuthors carrying a trace context.
func (ix *Index) TopAuthorsCtx(ctx context.Context, by RankKey, limit int) []AuthorMetrics {
	_, tm := trace.Time(ctx, "facade.rank", &ix.ops[opRank])
	defer tm.End()
	out := ix.loadTraced(tm.Span).Eng.TopAuthors(by, limit)
	tm.Span.SetInt("authors", int64(len(out)))
	return out
}

// TopCentralCtx is TopCentral carrying a trace context.
func (ix *Index) TopCentralCtx(ctx context.Context, limit int) []CentralAuthor {
	_, tm := trace.Time(ctx, "facade.central", &ix.ops[opCentral])
	defer tm.End()
	var out []CentralAuthor
	ix.loadTraced(tm.Span).Eng.ReadTrackers(func(met *metrics.Engine) {
		out = met.Graph().TopCentral(ClampLimit(limit, 10))
	})
	tm.Span.SetInt("authors", int64(len(out)))
	return out
}

// AddCtx is Add carrying a trace context: the facade.add span over
// the same group commit AddBatchCtx runs, with one work.
func (ix *Index) AddCtx(ctx context.Context, w Work) (WorkID, error) {
	ctx, tm := trace.Time(ctx, "facade.add", &ix.ops[opAdd])
	defer tm.End()
	ids, err := ix.commitAdds(ctx, tm.Span, []Work{w})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddBatchCtx is AddBatch carrying a trace context; the group commit
// (one WAL append, one fsync) and the index pass both nest under
// lock.hold.
func (ix *Index) AddBatchCtx(ctx context.Context, works []Work) ([]WorkID, error) {
	if len(works) == 0 {
		return nil, nil
	}
	ctx, tm := trace.Time(ctx, "facade.add_batch", &ix.ops[opAddBatch])
	tm.Span.SetInt("works", int64(len(works)))
	defer tm.End()
	return ix.commitAdds(ctx, tm.Span, works)
}

// commitAdds is the one write path for works. It deep-clones each
// inbound work — the only copy a written work gets — then, under the
// writer mutex, commits the clones to the store, which validates them
// and sets their IDs, and indexes the same clones into a clone of the
// engine and publishes it. The store's delta and the engine share
// those records; the caller's works are never touched.
func (ix *Index) commitAdds(ctx context.Context, sp *trace.Span, works []Work) ([]WorkID, error) {
	batch := make([]*model.Work, len(works))
	for i := range works {
		batch[i] = works[i].Clone()
	}
	// The mutex brackets the store commit and the publish: otherwise
	// two writers on the same explicit ID could commit to the store in
	// one order and publish in the other, leaving store and index
	// permanently divergent.
	hctx, hold := ix.lockTraced(ctx, &ix.hold.write)
	defer hold.End()
	defer ix.mu.Unlock()
	ids, err := ix.store.PutBatchCtx(hctx, batch)
	if err != nil {
		degradedAttr(sp, err)
		return nil, err
	}
	start := time.Now()
	eng := ix.engine().Clone()
	if err := eng.AddBatch(batch); err != nil {
		// The store validated every work, and validation is all the
		// engine can reject, so this cannot happen. Should it, the disk
		// holds a commit memory lacks: latch read-only and publish
		// nothing; a reopen rebuilds from disk.
		ix.store.Degrade(err)
		return nil, err
	}
	ix.publish(start, eng)
	return ids, nil
}

// DeleteCtx is Delete carrying a trace context: the facade.delete span
// over the same group commit DeleteBatchCtx runs, with one ID.
func (ix *Index) DeleteCtx(ctx context.Context, id WorkID) error {
	ctx, tm := trace.Time(ctx, "facade.delete", &ix.ops[opDelete])
	defer tm.End()
	return ix.commitDeletes(ctx, tm.Span, []WorkID{id})
}

// DeleteBatchCtx is DeleteBatch carrying a trace context.
func (ix *Index) DeleteBatchCtx(ctx context.Context, ids []WorkID) error {
	if len(ids) == 0 {
		return nil
	}
	ctx, tm := trace.Time(ctx, "facade.delete_batch", &ix.ops[opDeleteBatch])
	tm.Span.SetInt("works", int64(len(ids)))
	defer tm.End()
	return ix.commitDeletes(ctx, tm.Span, ids)
}

// commitDeletes is the one delete path: under the writer mutex, commit
// the store, then unindex every ID in a clone of the engine and publish
// it.
func (ix *Index) commitDeletes(ctx context.Context, sp *trace.Span, ids []WorkID) error {
	hctx, hold := ix.lockTraced(ctx, &ix.hold.write)
	defer hold.End()
	defer ix.mu.Unlock()
	if err := ix.store.DeleteBatchCtx(hctx, ids); err != nil {
		degradedAttr(sp, err)
		return err
	}
	start := time.Now()
	eng := ix.engine().Clone()
	for _, id := range ids {
		eng.Remove(id)
	}
	ix.publish(start, eng)
	return nil
}

// appendixLimit normalizes a render appendix limit through the shared
// clamp: non-positive values mean the documented default of 10, and
// explicit values clamp to MaxLimit like every other caller-supplied
// limit.
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
// that root alive — but blocks no writer — for the duration. The
// engine's live sections are grouped under a render.sections span,
// then encoded under a render span.
func (ix *Index) RenderCtx(ctx context.Context, w io.Writer, opts RenderOptions) error {
	ctx, tm := trace.Time(ctx, "facade.render", &ix.ops[opRender])
	defer tm.End()
	eng := ix.loadTraced(tm.Span).Eng
	if opts.Network && opts.NetworkAppendix == nil && render.NetworkSupported(opts.Format) {
		_, nsp := trace.StartSpan(ctx, "render.network_appendix")
		eng.ReadTrackers(func(met *metrics.Engine) {
			opts.NetworkAppendix = render.BuildNetwork(met.Graph(), appendixLimit(opts.NetworkLimit))
		})
		nsp.End()
	}
	if opts.Statistics && opts.Appendix == nil && render.StatisticsSupported(opts.Format) {
		_, ssp := trace.StartSpan(ctx, "render.stats_appendix")
		eng.ReadTrackers(func(met *metrics.Engine) {
			opts.Appendix = render.BuildStatistics(met, appendixLimit(opts.StatsLimit))
		})
		ssp.End()
	}
	_, secSpan := trace.StartSpan(ctx, "render.sections")
	// The root is immutable, so its live entries render as they are.
	sections := eng.Index().Sections()
	secSpan.SetInt("sections", int64(len(sections)))
	secSpan.End()
	return render.RenderSectionsCtx(ctx, w, sections, opts)
}

// RenderTitleIndexCtx is RenderTitleIndex carrying a trace context; a
// canceled ctx stops the render at the next section letter.
func (ix *Index) RenderTitleIndexCtx(ctx context.Context, w io.Writer, opts RenderOptions) error {
	ctx, tm := trace.Time(ctx, "facade.render_titles", &ix.ops[opRenderTitles])
	defer tm.End()
	r := ix.loadTraced(tm.Span)
	return render.WriteTitleIndex(ctx, w, func() render.TitleOrder { return r.titles(ix.coll) }, opts)
}

// RenderSubjectIndexCtx is RenderSubjectIndex carrying a trace context;
// a canceled ctx stops the render at the next subject heading.
func (ix *Index) RenderSubjectIndexCtx(ctx context.Context, w io.Writer, opts RenderOptions) error {
	ctx, tm := trace.Time(ctx, "facade.render_subjects", &ix.ops[opRenderSubjects])
	defer tm.End()
	r := ix.loadTraced(tm.Span)
	return render.WriteSubjectIndex(ctx, w, func() render.SubjectGroups { return r.subjects(ix.coll) }, opts)
}
