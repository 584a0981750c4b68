// Package httpapi is the HTTP surface of the author-index engine: the
// read-mostly query API, the write endpoints, and the operational
// endpoints (health, readiness, Prometheus metrics, optional pprof).
// `authdex serve` and the authbench benchmark both build their servers
// here, so the two surfaces cannot drift.
//
//	GET /stats                         counters as JSON
//	GET /authors?prefix=ab&n=20        headings by prefix
//	GET /authors/{heading}             one heading with works
//	GET /works/{id}                    one work
//	GET /search?q=surface+mining&n=20  boolean title search
//	GET /years?from=1980&to=1989&n=20  year-range scan
//	GET /volume?v=95                   volume scan
//	GET /index?format=text|tsv|md|csv|json   the rendered artifact
//	GET /metrics                       corpus bibliometrics summary
//	GET /rank?by=weighted&limit=10     top contributors by rank key
//	GET /authors/{heading}/metrics     one heading's bibliometrics
//	GET /graph                         coauthorship-network summary
//	GET /graph/path?from=A&to=B        shortest collaboration chain
//	GET /graph/central?limit=10        most central authors (PageRank)
//	POST /works                        add a work (JSON body)
//	POST /works:batch                  add N works in one group commit (JSON array)
//	GET /healthz                       liveness (always 200 while serving)
//	GET /readyz                        readiness (503 until boot checks pass)
//	GET /debug/metrics                 Prometheus text exposition
//	GET /debug/pprof/...               net/http/pprof (only with Config.Debug)
//
// Both POST bodies are capped at 64 MiB, the WAL's frame limit; a
// larger body gets 413.
//
// Note the deliberate split: GET /metrics keeps its original meaning —
// corpus bibliometrics — while the Prometheus exposition lives at
// /debug/metrics, so existing scrapers of either never collide.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	authorindex "repro"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value serves with a no-op logger, a
// registry of the server's own, no pprof and instant readiness.
type Config struct {
	// Logger receives one structured access-log record per request.
	// Nil discards access logs.
	Logger *slog.Logger
	// Registry is where request and index metrics land and what
	// /debug/metrics renders. Nil means a fresh registry the server
	// owns.
	Registry *obs.Registry
	// Debug mounts net/http/pprof under /debug/pprof/.
	Debug bool
	// VerifyOnBoot runs Index.Verify on a background goroutine at
	// construction; /readyz reports 503 until it passes, and keeps
	// reporting 503 (with the error) if it fails.
	VerifyOnBoot bool
	// Slowlog is the threshold at which a request's trace is always
	// retained and emitted as a structured log line with its span
	// tree. 0 disables the slowlog (traces still land in the
	// /debug/traces rings).
	Slowlog time.Duration
	// TraceSampleEvery admits 1 in N sub-threshold traces to the
	// recent ring; <=1 keeps every trace.
	TraceSampleEvery int
	// MaxInFlight caps concurrently served requests: excess requests
	// are shed with 503 + Retry-After before reaching a handler, so an
	// overloaded server degrades by queue-rejection instead of latency
	// collapse. /healthz, /readyz and /debug/ bypass the gate (an
	// overloaded server must still answer its operators). 0 disables.
	MaxInFlight int
}

// Server serves one open Index over HTTP. Build with New, mount with
// Handler.
type Server struct {
	ix  *authorindex.Index
	log *slog.Logger
	reg *obs.Registry
	cfg Config

	ready    atomic.Bool
	readyErr atomic.Value // string
	draining atomic.Bool
	admitted atomic.Int64

	inflight *obs.Gauge
	panics   *obs.Counter
	shed     *obs.Counter
	tracer   *trace.Tracer
	reqSeq   atomic.Uint64
	ridOnce  sync.Once
	ridSeed  string
	routes   map[string]*routeStats // per-pattern telemetry, built in Handler
}

// New builds a Server and starts its boot checks. It registers the
// index's metrics and the process runtime gauges on the configured
// registry so /debug/metrics exposes them.
func New(ix *authorindex.Index, cfg Config) *Server {
	s := &Server{ix: ix, log: cfg.Logger, reg: cfg.Registry, cfg: cfg}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.log == nil {
		s.log = slog.New(discardHandler{})
	}
	ix.RegisterMetrics(s.reg)
	obs.RegisterProcess(s.reg)
	s.inflight = s.reg.Gauge("authdex_http_in_flight_requests",
		"Requests currently being served.")
	s.panics = s.reg.Counter("authdex_http_panics_total",
		"Requests whose handler panicked and was recovered to a 500.")
	s.shed = s.reg.Counter("authdex_http_requests_shed_total",
		"Requests rejected with 503 by the max-in-flight admission gate.")
	s.tracer = trace.NewTracer(trace.Config{
		Slowlog:     cfg.Slowlog,
		SampleEvery: cfg.TraceSampleEvery,
		Logger:      s.log,
	})
	if cfg.VerifyOnBoot {
		go func() {
			if err := ix.Verify(); err != nil {
				s.readyErr.Store(err.Error())
				s.log.Error("verify-on-boot failed", "error", err)
				return
			}
			s.ready.Store(true)
		}()
	} else {
		s.ready.Store(true)
	}
	return s
}

// Tracer exposes the request tracer (tests and embedding servers
// read its snapshot directly; everyone else scrapes /debug/traces).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Handler returns the fully wired handler: every route behind the
// telemetry middleware (request IDs, per-route metrics, access logs),
// plus the operational endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes = make(map[string]*routeStats)
	for _, r := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /stats", s.stats},
		{"GET /authors", s.authors},
		{"GET /authors/{heading}", s.author},
		{"GET /authors/{heading}/metrics", s.authorMetrics},
		{"GET /works/{id}", s.work},
		{"GET /search", s.search},
		{"GET /years", s.years},
		{"GET /volume", s.volume},
		{"GET /index", s.index},
		{"GET /titles", s.titles},
		{"GET /subjects", s.subjects},
		{"GET /subjects/{subject}", s.bySubject},
		{"GET /metrics", s.metrics},
		{"GET /rank", s.rank},
		{"GET /graph", s.graph},
		{"GET /graph/path", s.graphPath},
		{"GET /graph/central", s.graphCentral},
		{"POST /works", s.addWork},
		{"POST /works:batch", s.addWorksBatch},
		{"GET /healthz", s.healthz},
		{"GET /readyz", s.readyz},
		{"GET /debug/metrics", s.debugMetrics},
		{"GET /debug/traces", s.debugTraces},
	} {
		s.handle(mux, r.pattern, r.h)
	}
	if s.cfg.Debug {
		// pprof routes bypass the per-route histogram map (they are
		// operator tools, not workload) but still pass the middleware.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.routes[unmatchedRoute] = s.newRouteStats(unmatchedRoute)
	// Telemetry is outermost so shed and panicking requests still get
	// request IDs, metrics and access-log records; recovery sits above
	// admission so a panic inside the gate itself cannot leak the slot.
	return s.telemetry(s.recovery(s.admission(mux)))
}

// BeginShutdown flips /readyz to 503 "shutting down" so load balancers
// stop routing new work here while in-flight requests drain. It does
// not interrupt requests already being served — call http.Server
// Shutdown after this for the actual drain. Idempotent.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
}

// handle registers pattern on mux with the route-stamping wrapper and
// pre-creates the route's latency histogram. The handler runs under an
// http.handler span so the root span's direct children account for the
// whole request — time the finer spans miss (scheduler gaps, handler
// glue) still lands inside the handler window instead of vanishing.
func (s *Server) handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	s.routes[pattern] = s.newRouteStats(pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		stampRoute(r, pattern)
		ctx, sp := trace.StartSpan(r.Context(), "http.handler")
		if sp != nil {
			r = r.WithContext(ctx)
		}
		h(w, r)
		sp.End()
	})
}

// ---- operational handlers ----

// healthz is pure liveness: if the handler runs, the process is up.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// readyz is readiness: the index finished Open (a constructed Server
// implies that), the optional verify-on-boot pass succeeded, and the
// server is not draining for shutdown. A degraded (read-only) index
// still reports ready — reads keep serving the last published
// snapshot and only writes 503 — but the body names the cause so
// operators and probes that inspect it can tell.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if s.ready.Load() {
		if deg, cause := s.ix.Degraded(); deg {
			fmt.Fprintf(w, "degraded: %v\n", cause)
			return
		}
		io.WriteString(w, "ok\n")
		return
	}
	if msg, ok := s.readyErr.Load().(string); ok {
		http.Error(w, "verify failed: "+msg, http.StatusServiceUnavailable)
		return
	}
	http.Error(w, "starting: verify in progress", http.StatusServiceUnavailable)
}

func (s *Server) debugMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("metrics exposition", "error", err)
	}
}

// ---- shared helpers ----

func writeJSON(ctx context.Context, w http.ResponseWriter, v any) {
	_, sp := trace.StartSpan(ctx, "http.encode")
	defer sp.End()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// canceled reports whether the client already hung up, answering the
// 499 status used by proxies for the same condition. Handlers call it
// before expensive phases (render, list, rank, scan) so a dead
// connection never pays for work nobody will read; the middleware
// counts these under the "canceled" status label.
func canceled(w http.ResponseWriter, r *http.Request) bool {
	if r.Context().Err() == nil {
		return false
	}
	httpErr(w, StatusClientClosedRequest, "client closed request")
	return true
}

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// writeIndexErr maps an index write failure onto the wire: a degraded
// (read-only) index answers 503 with Retry-After so well-behaved
// clients back off and retry against a recovered or failed-over
// replica, and the request's trace is tagged. The commit whose I/O
// failure tripped the latch returns the same 503 — the index, not the
// caller's data, is at fault. Everything else stays a 422.
func (s *Server) writeIndexErr(w http.ResponseWriter, r *http.Request, err error) {
	deg, _ := s.ix.Degraded()
	if deg || errors.Is(err, authorindex.ErrDegraded) {
		trace.FromContext(r.Context()).SetAttr("degraded", "true")
		w.Header().Set("Retry-After", "30")
		httpErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	httpErr(w, http.StatusUnprocessableEntity, "%v", err)
}

// limitParam reads the result limit from ?limit= (or the legacy ?n=)
// and clamps it with the helper every layer shares: missing, negative
// or unparseable values fall back to 20, zero and absurd values clamp
// to authorindex.MaxLimit.
func limitParam(r *http.Request) int {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		raw = r.URL.Query().Get("n")
	}
	if raw == "" {
		return 20
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 20
	}
	return authorindex.ClampLimit(n, 20)
}

// wire representations -------------------------------------------------

// Work is the wire form of one work, shared by responses and the POST
// /works and /works:batch request bodies.
type Work struct {
	ID       authorindex.WorkID `json:"id,omitempty"`
	Title    string             `json:"title"`
	Kind     string             `json:"kind"`
	Authors  []string           `json:"authors"`
	Citation string             `json:"citation"`
}

func toWireWork(w *authorindex.Work) Work {
	out := Work{
		ID:       w.ID,
		Title:    w.Title,
		Kind:     w.Kind.String(),
		Citation: w.Citation.String(),
	}
	for _, a := range w.Authors {
		out.Authors = append(out.Authors, authorindex.FormatAuthor(a))
	}
	return out
}

func toWireWorks(ws []*authorindex.Work) []Work {
	out := make([]Work, len(ws))
	for i, w := range ws {
		out[i] = toWireWork(w)
	}
	return out
}

// Entry is the wire form of one author heading.
type Entry struct {
	Heading string   `json:"heading"`
	SeeAlso []string `json:"seeAlso,omitempty"`
	Works   []Work   `json:"works"`
}

func toWireEntry(e *authorindex.Entry) Entry {
	out := Entry{Heading: authorindex.FormatAuthor(e.Author)}
	for _, ref := range e.SeeAlso {
		out.SeeAlso = append(out.SeeAlso, authorindex.FormatAuthor(ref))
	}
	for i := range e.Works {
		out.Works = append(out.Works, toWireWork(&e.Works[i]))
	}
	return out
}

// handlers --------------------------------------------------------------

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(r.Context(), w, s.ix.Stats())
}

func (s *Server) authors(w http.ResponseWriter, r *http.Request) {
	if canceled(w, r) {
		return
	}
	var entries []*authorindex.Entry
	if after := r.URL.Query().Get("after"); after != "" {
		entries = s.ix.AuthorsPageCtx(r.Context(), after, limitParam(r))
	} else {
		entries = s.ix.AuthorsCtx(r.Context(), r.URL.Query().Get("prefix"), limitParam(r))
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = toWireEntry(e)
	}
	writeJSON(r.Context(), w, out)
}

func (s *Server) author(w http.ResponseWriter, r *http.Request) {
	heading := r.PathValue("heading")
	entry, ok := s.ix.Author(heading)
	if !ok {
		httpErr(w, http.StatusNotFound, "no heading %q", heading)
		return
	}
	writeJSON(r.Context(), w, toWireEntry(entry))
}

func (s *Server) work(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "bad id: %v", err)
		return
	}
	work, ok := s.ix.GetCtx(r.Context(), authorindex.WorkID(id))
	if !ok {
		httpErr(w, http.StatusNotFound, "no work %d", id)
		return
	}
	writeJSON(r.Context(), w, toWireWork(work))
}

func (s *Server) search(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		httpErr(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	if canceled(w, r) {
		return
	}
	writeJSON(r.Context(), w, toWireWorks(s.ix.SearchCtx(r.Context(), q, limitParam(r))))
}

// intParam reads one required integer query parameter, normalizing
// every bad shape to one 400 with a message naming the parameter and
// what went wrong — a missing parameter reads differently from a
// malformed one, instead of both collapsing into a generic error.
func intParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		httpErr(w, http.StatusBadRequest, "missing %s parameter", name)
		return 0, false
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%s must be an integer, got %q", name, raw)
		return 0, false
	}
	return n, true
}

func (s *Server) years(w http.ResponseWriter, r *http.Request) {
	from, ok := intParam(w, r, "from")
	if !ok {
		return
	}
	to, ok := intParam(w, r, "to")
	if !ok {
		return
	}
	if canceled(w, r) {
		return
	}
	writeJSON(r.Context(), w, toWireWorks(s.ix.YearRangeCtx(r.Context(), from, to, limitParam(r))))
}

func (s *Server) volume(w http.ResponseWriter, r *http.Request) {
	v, ok := intParam(w, r, "v")
	if !ok {
		return
	}
	if canceled(w, r) {
		return
	}
	writeJSON(r.Context(), w, toWireWorks(s.ix.VolumeWorksCtx(r.Context(), v, limitParam(r))))
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("format")
	if name == "" {
		name = "text"
	}
	f, err := authorindex.ParseFormat(name)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if canceled(w, r) {
		return
	}
	switch f {
	case authorindex.JSON:
		w.Header().Set("Content-Type", "application/json")
	case authorindex.CSV:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	case authorindex.HTMLPage:
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	if err := s.ix.RenderCtx(r.Context(), w, authorindex.RenderOptions{Format: f}); err != nil {
		if r.Context().Err() != nil {
			// The render aborted because the client went away; headers
			// may already be out, so just stop writing.
			return
		}
		httpErr(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) titles(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("format")
	if name == "" {
		name = "text"
	}
	f, err := authorindex.ParseFormat(name)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if canceled(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.ix.RenderTitleIndexCtx(r.Context(), w, authorindex.RenderOptions{Format: f}); err != nil {
		if r.Context().Err() != nil {
			// The client went away mid-render: stop writing.
			return
		}
		httpErr(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) subjects(w http.ResponseWriter, r *http.Request) {
	writeJSON(r.Context(), w, s.ix.Subjects())
}

func (s *Server) bySubject(w http.ResponseWriter, r *http.Request) {
	subject := r.PathValue("subject")
	if canceled(w, r) {
		return
	}
	works := s.ix.BySubjectCtx(r.Context(), subject, limitParam(r))
	if len(works) == 0 {
		httpErr(w, http.StatusNotFound, "no works under subject %q", subject)
		return
	}
	writeJSON(r.Context(), w, toWireWorks(works))
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(r.Context(), w, s.ix.MetricsSummary())
}

func (s *Server) rank(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("by")
	if name == "" {
		name = "weighted"
	}
	by, err := authorindex.ParseRankKey(name)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if canceled(w, r) {
		return
	}
	writeJSON(r.Context(), w, s.ix.TopAuthorsCtx(r.Context(), by, limitParam(r)))
}

func (s *Server) graph(w http.ResponseWriter, r *http.Request) {
	writeJSON(r.Context(), w, s.ix.GraphSummary())
}

// Path is the /graph/path response: the chain plus its hop count.
type Path struct {
	From     string   `json:"from"`
	To       string   `json:"to"`
	Distance int      `json:"distance"`
	Path     []string `json:"path"`
}

func (s *Server) graphPath(w http.ResponseWriter, r *http.Request) {
	from := r.URL.Query().Get("from")
	to := r.URL.Query().Get("to")
	if from == "" || to == "" {
		httpErr(w, http.StatusBadRequest, "from and to parameters are required")
		return
	}
	path, ok := s.ix.CollaborationPath(from, to)
	if !ok {
		httpErr(w, http.StatusNotFound, "no collaboration path from %q to %q", from, to)
		return
	}
	writeJSON(r.Context(), w, Path{From: from, To: to, Distance: len(path) - 1, Path: path})
}

func (s *Server) graphCentral(w http.ResponseWriter, r *http.Request) {
	if canceled(w, r) {
		return
	}
	writeJSON(r.Context(), w, s.ix.TopCentralCtx(r.Context(), limitParam(r)))
}

func (s *Server) authorMetrics(w http.ResponseWriter, r *http.Request) {
	heading := r.PathValue("heading")
	m, ok := s.ix.AuthorMetrics(heading)
	if !ok {
		httpErr(w, http.StatusNotFound, "no heading %q", heading)
		return
	}
	writeJSON(r.Context(), w, m)
}

// maxBody caps a write request's body at the WAL's frame limit, the
// most one commit can log, so one request can never make the server
// buffer more than that.
const maxBody = wal.MaxRecord

// decodeBody decodes a write request's JSON body into v, answering 413
// past maxBody and 400 for anything else malformed.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
	default:
		httpErr(w, http.StatusBadRequest, "bad body: %v", err)
	}
	return false
}

func (s *Server) addWork(w http.ResponseWriter, r *http.Request) {
	var in Work
	if !decodeBody(w, r, &in) {
		return
	}
	work, err := fromWireWork(in)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.ix.AddCtx(r.Context(), work)
	if err != nil {
		s.writeIndexErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(r.Context(), w, map[string]authorindex.WorkID{"id": id})
}

// addWorksBatch accepts a JSON array of works and commits them as one
// batch: a single WAL append and fsync however many works arrive, and
// all-or-nothing visibility — one bad work rejects the whole request.
func (s *Server) addWorksBatch(w http.ResponseWriter, r *http.Request) {
	var in []Work
	if !decodeBody(w, r, &in) {
		return
	}
	if len(in) == 0 {
		httpErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	works := make([]authorindex.Work, len(in))
	for i, ww := range in {
		work, err := fromWireWork(ww)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "work %d: %v", i, err)
			return
		}
		works[i] = work
	}
	ids, err := s.ix.AddBatchCtx(r.Context(), works)
	if err != nil {
		s.writeIndexErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(r.Context(), w, map[string][]authorindex.WorkID{"ids": ids})
}

func fromWireWork(in Work) (authorindex.Work, error) {
	work := authorindex.Work{ID: in.ID, Title: in.Title}
	var err error
	if work.Citation, err = authorindex.ParseCitation(in.Citation); err != nil {
		return work, err
	}
	kindName := in.Kind
	if kindName == "" {
		kindName = "article"
	}
	if work.Kind, err = authorindex.ParseKind(strings.ToLower(kindName)); err != nil {
		return work, err
	}
	if len(in.Authors) == 0 {
		return work, errors.New("at least one author is required")
	}
	for _, h := range in.Authors {
		a, err := authorindex.ParseAuthor(h)
		if err != nil {
			return work, err
		}
		work.Authors = append(work.Authors, a)
	}
	return work, nil
}
