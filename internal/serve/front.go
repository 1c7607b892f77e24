package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Front is the HTTP plumbing both tiers run on: a replica (Server) and
// the fleet gateway embed it. It owns the mux, request counting,
// response classes and latency, always-on request tracing into the ring
// behind GET /v1/trace, the per-route stage histograms, the access log,
// and drain-aware serving. It answers the routes both tiers answer
// locally and identically: GET /metrics, GET /v1/trace, GET /v1/catalog,
// GET /v1/experiments and POST /v1/validate.
type Front struct {
	tier       string   // metric-name prefix: "serve" on a replica, "fleet" at the gateway
	stages     []string // stage histograms pre-resolved for every mounted route
	mux        *http.ServeMux
	drain      time.Duration
	background func(context.Context) // runs beside Serve until the drain starts
	ring       *traceRing
	reg        *obs.Registry                        // may be nil: instruments are nil-safe no-ops
	stageH     map[string]map[string]*obs.Histogram // route → stage → histogram, filled while mounting
	accessLog  *slog.Logger

	// draining flips the instant graceful shutdown begins, before the
	// listener closes: /healthz answers 503 "draining" while in-flight
	// requests finish, so a fleet gateway stops routing here ahead of
	// connection refusals.
	draining atomic.Bool

	mReqs    *obs.Counter
	mResp    [6]*obs.Counter // index = status/100 (mResp[2] = 2xx …)
	mLatency *obs.Histogram
}

// NewFront builds a tier's front over the process-default obs registry
// and mounts the shared routes. Its series are tier.requests,
// tier.responses.{2..5}xx, tier.latency_us and
// tier.stage_us.{route}.{stage} for each listed stage and mounted route.
// accessLog (nil disables) gets one line per request; background (the
// replica's runtime sampler, the gateway's health checker) runs beside
// Serve until the drain starts.
func NewFront(tier string, stages []string, traceBuffer int, drain time.Duration, accessLog io.Writer, background func(context.Context)) *Front {
	reg := obs.Default()
	f := &Front{
		tier:       tier,
		stages:     stages,
		mux:        http.NewServeMux(),
		drain:      drain,
		background: background,
		ring:       newTraceRing(traceBuffer),
		reg:        reg,
		stageH:     make(map[string]map[string]*obs.Histogram),
		mReqs:      reg.Counter(tier + ".requests"),
		mLatency:   reg.Histogram(tier+".latency_us", latencyBounds),
	}
	for class := 2; class <= 5; class++ {
		f.mResp[class] = reg.Counter(fmt.Sprintf("%s.responses.%dxx", tier, class))
	}
	if accessLog != nil {
		f.accessLog = slog.New(slog.NewTextHandler(accessLog, nil))
	}
	f.Handle("GET /metrics", "metrics", f.handleMetrics)
	f.Handle("GET /v1/trace", "trace", f.handleTrace)
	f.Handle("GET /v1/catalog", "catalog", handleCatalog)
	f.Handle("GET /v1/experiments", "experiments", handleExperiments)
	f.Handle("POST /v1/validate", "validate", handleValidate)
	return f
}

// Handle mounts h at pattern behind the front's instrumentation. route
// is the stable short name ("eval", "metrics", …) used for trace
// filtering and the stage histograms; Go 1.22's mux doesn't expose the
// matched pattern, so it is passed explicitly. An empty route mounts h
// untraced, which /healthz uses so health pollers do not fill the ring.
// Mount every route before serving: requests read the stage histograms
// without a lock.
func (f *Front) Handle(pattern, route string, h http.HandlerFunc) {
	if route == "" {
		f.mux.HandleFunc(pattern, h)
		return
	}
	if f.stageH[route] == nil {
		m := make(map[string]*obs.Histogram, len(f.stages))
		for _, stage := range f.stages {
			m[stage] = f.reg.Histogram(stageHistName(f.tier, route, stage), stageBounds)
		}
		f.stageH[route] = m
	}
	f.mux.HandleFunc(pattern, f.instrument(route, h))
}

// Handler returns the tier's root handler (for tests and embedding).
func (f *Front) Handler() http.Handler { return f.mux }

// Draining reports whether graceful shutdown has begun.
func (f *Front) Draining() bool { return f.draining.Load() }

// statusWriter captures the response status and byte count for the
// access log and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// logAttrs are the trace attributes the access log carries when a
// request set them: the replica's key-memo, cache and singleflight
// dispositions, and the gateway's replica, attempt count, replica trace
// and degraded flag.
var logAttrs = []string{"memo", "cache", "shared", "replica", "attempts", "replica_trace", "degraded"}

// instrument wraps a handler with request counting, latency recording,
// always-on request tracing, and structured access logging. A request's
// spans go into its obs.Trace (the ring behind /v1/trace), never the
// registry's span log, which keeps the experiment spans /v1/run records.
func (f *Front) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		f.mReqs.Inc()
		tr := obs.NewTrace(obs.NewTraceID(), route, 0)
		w.Header().Set(TraceHeader, tr.ID())
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		rec := tr.Finish(sw.status) // before bookkeeping, so stages tile the trace wall
		if class := sw.status / 100; class >= 2 && class <= 5 {
			f.mResp[class].Inc()
		}
		dur := time.Since(start)
		f.mLatency.Observe(float64(dur.Microseconds()))
		f.ring.Push(rec)
		f.recordStages(route, rec)
		if f.accessLog != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Int("bytes", sw.bytes),
				slog.Duration("dur", dur),
				slog.String("trace", tr.ID()),
				slog.String("remote", r.RemoteAddr),
			}
			for _, k := range logAttrs {
				if v, ok := rec.Attrs[k]; ok {
					attrs = append(attrs, slog.String(k, v))
				}
			}
			f.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	}
}

// stageHistName builds a tier's per-route × per-stage histogram name.
func stageHistName(tier, route, stage string) string {
	return tier + ".stage_us." + route + "." + stage
}

// stageHist returns the route × stage histogram, preferring the
// pointers pre-resolved at mount time — the registry lookup (mutex +
// map + string concat) is too expensive per request-stage.
func (f *Front) stageHist(route, stage string) *obs.Histogram {
	if h, ok := f.stageH[route][stage]; ok {
		return h
	}
	return f.reg.Histogram(stageHistName(f.tier, route, stage), stageBounds)
}

// recordStages turns one finished trace into the per-route stage
// histograms: every top-level span plus the request total, each
// observation carrying the trace ID as its bucket exemplar — so the
// slowest bucket of any stage histogram names a concrete trace to pull
// from /v1/trace.
func (f *Front) recordStages(route string, rec *obs.TraceRecord) {
	id := rec.ID
	f.stageHist(route, StageTotal).ObserveEx(float64(rec.WallNS)/1e3, id)
	for _, sp := range rec.Spans {
		if sp.Parent != 0 {
			continue // nested spans are attributed through their parent stage
		}
		f.stageHist(route, sp.Name).ObserveEx(float64(sp.WallNS)/1e3, id)
	}
}

// ListenAndServe serves on addr until ctx is canceled, then drains
// in-flight requests before returning. A clean drain returns nil, so a
// SIGTERM'd process exits 0. If ready is non-nil it receives the bound
// address (useful with ":0") once the listener is open.
func (f *Front) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(l.Addr())
	}
	return f.Serve(ctx, l)
}

// Serve is ListenAndServe over an existing listener, with the background
// task beside it. It owns l and closes it on return. On cancellation
// readiness flips first: draining is set before the listener closes, so
// a gateway polling /healthz sees "draining" (503) and stops routing
// here while the requests already in flight complete. Shutdown does not
// cancel request contexts, so running solves finish within their own
// deadlines; the whole drain gets up to the drain bound.
func (f *Front) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{Handler: f.mux, ReadHeaderTimeout: 10 * time.Second}
	bctx, stop := context.WithCancel(ctx)
	defer stop()
	go f.background(bctx)
	errc := make(chan error, 1)
	go func() {
		err := srv.Serve(l)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	f.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	shutErr := srv.Shutdown(dctx)
	<-errc
	if shutErr != nil {
		return fmt.Errorf("drain exceeded %s: %w", f.drain, shutErr)
	}
	return nil
}
