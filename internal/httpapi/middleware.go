package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	// RequestIDHeader carries the request ID. Incoming values are
	// propagated (so a gateway's IDs survive into the access log);
	// absent ones are generated.
	RequestIDHeader = "X-Request-ID"

	reqDurationMetric = "authdex_http_request_duration_seconds"
	reqDurationHelp   = "HTTP request latency by route pattern."
	reqTotalMetric    = "authdex_http_requests_total"
	reqTotalHelp      = "HTTP requests served by route pattern and status code."

	// unmatchedRoute labels requests no registered pattern claimed
	// (404s from the mux, pprof routes).
	unmatchedRoute = "unmatched"

	// StatusClientClosedRequest is the nginx-convention status for a
	// request aborted because the client disconnected. It is counted
	// under the "canceled" label rather than "499" so dashboards can
	// tell load-shedding from real errors.
	StatusClientClosedRequest = 499
)

// routeKey carries a pointer to the matched route pattern through the
// request context: the per-route wrapper stamps it after the mux picks
// a handler, and the outer middleware reads it once the handler
// returns. A pointer, because the middleware allocates the slot before
// routing happens.
type routeKey struct{}

func stampRoute(r *http.Request, pattern string) {
	if p, ok := r.Context().Value(routeKey{}).(*string); ok {
		*p = pattern
	}
}

// statusWriter captures the status code and response size the handler
// produced, defaulting to 200 for handlers that never call WriteHeader.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes (the render endpoints produce large
// bodies) when the underlying writer supports them.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// telemetry wraps the routed mux with the full request pipeline:
// request-ID injection, the in-flight gauge, per-route latency
// histograms and status-code counters, and one structured access-log
// record per request.
func (s *Server) telemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = s.newRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)

		route := unmatchedRoute
		ctx := context.WithValue(r.Context(), routeKey{}, &route)
		// The root span of this request's trace: every layer below
		// attaches children through the context. The op family is only
		// known after routing, so it is stamped at Finish.
		ctx, tr := s.tracer.StartRoot(ctx, rid, r.Method+" "+r.URL.Path)
		r = r.WithContext(ctx)

		s.inflight.Inc()
		defer s.inflight.Dec()

		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		elapsed := time.Since(start)

		tr.Root().SetInt("status", int64(sw.code))
		tr.Finish(route)

		rt, ok := s.routes[route]
		if !ok {
			// Every pattern is registered through handle; this is only a
			// safety net, resolved per request.
			rt = s.newRouteStats(route)
		}
		rt.latency.Observe(elapsed)
		rt.counter(s.reg, sw.code).Inc()

		if !s.log.Enabled(r.Context(), slog.LevelInfo) {
			return
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.code),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// routeStats is one route's request telemetry, resolved once: its
// latency histogram and, for each status code it has answered, its
// request counter.
type routeStats struct {
	route   string
	latency *obs.Histogram
	mu      sync.RWMutex
	codes   map[int]*obs.Counter
}

// newRouteStats registers route's latency histogram.
func (s *Server) newRouteStats(route string) *routeStats {
	return &routeStats{
		route:   route,
		latency: s.reg.Histogram(reqDurationMetric, reqDurationHelp, "route", route),
		codes:   make(map[int]*obs.Counter),
	}
}

// counter returns the request counter for this route and status code,
// registering it on first use, so a series appears only once a code has
// been served.
func (rs *routeStats) counter(reg *obs.Registry, code int) *obs.Counter {
	rs.mu.RLock()
	c := rs.codes[code]
	rs.mu.RUnlock()
	if c != nil {
		return c
	}
	label := strconv.Itoa(code)
	if code == StatusClientClosedRequest {
		label = "canceled"
	}
	// The registry returns the same counter for the same labels, so two
	// first requests racing here store the same pointer.
	c = reg.Counter(reqTotalMetric, reqTotalHelp, "route", rs.route, "code", label)
	rs.mu.Lock()
	rs.codes[code] = c
	rs.mu.Unlock()
	return c
}

// discardHandler is the access log of a Server configured without a
// Logger: no level is enabled, so telemetry builds no record at all.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// recovery turns a handler panic into a 500 instead of killing the
// connection (and, under http.Server, only that goroutine — leaving a
// half-written epoch of telemetry). It counts the panic, logs the
// stack, and force-retains the request's trace so /debug/traces holds
// the span tree of every request that blew up. It sits inside
// telemetry, so the access log and per-route metrics still record the
// 500.
func (s *Server) recovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// The sentinel for "drop this connection on purpose";
				// net/http handles it quietly upstream.
				panic(rec)
			}
			s.panics.Inc()
			trace.FromContext(r.Context()).ForceSlowTrace()
			s.log.Error("panic recovered",
				"panic", fmt.Sprint(rec),
				"method", r.Method,
				"path", r.URL.Path,
				"stack", string(debug.Stack()))
			// Only answer if the handler hadn't started the response;
			// telemetry's statusWriter knows.
			if sw, ok := w.(*statusWriter); !ok || sw.code == 0 {
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// admission is the max-in-flight gate: a cheap atomic reservation that
// sheds load with 503 + Retry-After once cfg.MaxInFlight requests are
// already in the house. Operational endpoints bypass it — health
// probes and debug scrapes must answer precisely when the server is
// too busy to do anything else.
func (s *Server) admission(next http.Handler) http.Handler {
	limit := int64(s.cfg.MaxInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if limit > 0 && !operational(r.URL.Path) {
			if s.admitted.Add(1) > limit {
				s.admitted.Add(-1)
				s.shed.Inc()
				w.Header().Set("Retry-After", "1")
				httpErr(w, http.StatusServiceUnavailable,
					"server at capacity (%d requests in flight)", limit)
				return
			}
			defer s.admitted.Add(-1)
		}
		next.ServeHTTP(w, r)
	})
}

// operational marks the paths that skip the admission gate.
func operational(path string) bool {
	return path == "/healthz" || path == "/readyz" || strings.HasPrefix(path, "/debug/")
}

// newRequestID returns a process-unique request ID: a random per-server
// prefix, a dash and a sequence number in at least 8 hex digits (the
// "%s-%08x" form), cheap enough for the hot path (no syscall after the
// first call, one allocation).
func (s *Server) newRequestID() string {
	var buf [40]byte
	var digits [16]byte
	hex := strconv.AppendUint(digits[:0], s.reqSeq.Add(1), 16)
	b := append(append(buf[:0], s.ridPrefix()...), '-')
	for i := len(hex); i < 8; i++ {
		b = append(b, '0')
	}
	return string(append(b, hex...))
}

func (s *Server) ridPrefix() string {
	s.ridOnce.Do(func() {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// A time-derived prefix is a fine fallback for telemetry IDs.
			copy(b[:], fmt.Sprintf("%04x", time.Now().UnixNano()&0xffff))
		}
		s.ridSeed = hex.EncodeToString(b[:])
	})
	return s.ridSeed
}
