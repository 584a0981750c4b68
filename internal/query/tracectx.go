package query

import (
	"context"

	"repro/internal/model"
	"repro/internal/trace"
)

// Ctx variants of the view methods: identical semantics, plus one
// engine-scan span with the result count attached. The non-ctx
// methods delegate through context.Background(), which is the
// zero-allocation disabled path (TitleSearchViewCtx lives next to its
// implementation in query.go because the postings intersection gets
// its own child span there).

// YearRangeViewCtx is YearRangeView carrying a trace context.
func (e *Engine) YearRangeViewCtx(ctx context.Context, from, to, limit int) []*model.Work {
	_, sp := trace.StartSpan(ctx, "engine.year_scan")
	out := e.YearRangeView(from, to, limit)
	sp.SetInt("hits", int64(len(out)))
	sp.End()
	return out
}

// BySubjectViewCtx is BySubjectView carrying a trace context.
func (e *Engine) BySubjectViewCtx(ctx context.Context, subject string, limit int) []*model.Work {
	_, sp := trace.StartSpan(ctx, "engine.subject_scan")
	out := e.BySubjectView(subject, limit)
	sp.SetInt("hits", int64(len(out)))
	sp.End()
	return out
}

// VolumeViewCtx is VolumeView carrying a trace context.
func (e *Engine) VolumeViewCtx(ctx context.Context, v, limit int) []*model.Work {
	_, sp := trace.StartSpan(ctx, "engine.volume_scan")
	out := e.VolumeView(v, limit)
	sp.SetInt("hits", int64(len(out)))
	sp.End()
	return out
}
