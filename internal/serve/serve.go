// Package serve exposes the bandwidth-wall model as a long-lived HTTP
// service: the scenario engine (with its memoized solver cache), the
// experiment registry, and the technique catalog become network
// endpoints, so design-space exploration tools can iterate against the
// model interactively instead of shelling out to the one-shot CLI.
//
// Endpoints:
//
//	POST   /v1/eval                    evaluate a scenario.Spec JSON body
//	POST   /v1/optimize                inverse design-space search from an OptimizeSpec JSON body
//	POST   /v1/validate                parse + fingerprint a scenario.Spec without solving it
//	GET    /v1/experiments             list the registered reproductions
//	POST   /v1/experiments/{id}/run    run one reproduction
//	GET    /v1/catalog                 the technique registry + param schemas
//	GET    /v1/trace                   recent request traces (?slow=D, ?route=, ?id=, ?limit=)
//	GET    /v1/cache                   cache occupancy + hit ratios (?top=N)
//	DELETE /v1/cache                   purge the key memo, response LRU and solver cache
//	GET    /healthz                    liveness probe
//	GET    /metrics                    obs registry snapshot (text or NDJSON)
//
// The serving layer carries the production muscles the one-shot CLI
// never needed: a bounded admission semaphore (429 + Retry-After on
// saturation), per-request deadlines threaded as context through the
// solver, the robust error taxonomy mapped onto HTTP status codes
// (ErrDomain→400, cancellation→504, contained panics→500 without
// killing the process), a singleflight layer that collapses concurrent
// identical spec evaluations into one solve, a bounded LRU response
// cache, structured access logging, and graceful shutdown that drains
// in-flight evaluations.
//
// The query endpoints share one pipeline. Eval and optimize are two
// declarations of a query kind — parser, fingerprint, solver, renderer —
// on a single handler, and /v1/validate runs that handler's first half
// (read, parse, fingerprint). Both tiers run on one Front, the HTTP
// plumbing around every handler: request counting, tracing, the access
// log, error bodies, /metrics and drain-aware serving. The fleet gateway
// embeds it too, keys bodies with ReadKey (the same first half, behind
// its own KeyMemo) and lowers ?timeout= with RequestContext, so both
// tiers share one request lifecycle. A KeyMemo on either tier lets a
// body whose exact bytes already had an answer served from a response
// cache skip parse and fingerprint.
//
// Every request is traced, always-on: the handler pipeline records a
// per-stage span tree (admission → parse → fingerprint → cache lookup →
// singleflight → engine → solver → render → write) with wall-clock and
// (on one trace in eight) allocation deltas, keeps the last TraceBuffer
// completed traces in a fixed ring behind GET /v1/trace, returns the
// trace ID in the X-Bandwall-Trace header, stamps it into the access
// log, and feeds per-route × per-stage latency histograms whose bucket
// exemplars carry trace IDs. A background collector samples runtime
// gauges (goroutines, heap, GC) so /metrics answers "is the process
// healthy" too.
package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/robust"
	"repro/internal/scenario"
)

// Config tunes one Server. The zero value serves with the defaults
// below.
type Config struct {
	// MaxInflight bounds concurrently admitted requests on the evaluation
	// endpoints (/v1/eval, /v1/optimize, /v1/experiments/{id}/run).
	// Requests beyond the bound are rejected with 429 + Retry-After
	// instead of queueing, so a saturated server degrades by shedding
	// rather than by latency collapse. ≤0 means DefaultMaxInflight.
	MaxInflight int
	// EvalTimeout is the per-request solver deadline. A request may lower
	// (never raise) it with ?timeout=D. ≤0 means DefaultEvalTimeout.
	EvalTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the listener closes. ≤0 means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// CacheSize bounds the rendered-response LRU cache (entries). 0 means
	// DefaultCacheSize; negative disables response caching.
	CacheSize int
	// TraceBuffer sizes the ring of completed request traces behind
	// GET /v1/trace. Tracing is always on; the ring only bounds retention.
	// ≤0 means DefaultTraceBuffer.
	TraceBuffer int
	// AccessLog receives one slog key=value line per request (method,
	// path, status, bytes, duration, trace ID, key-memo and cache
	// dispositions, singleflight-shared flag). Nil disables access
	// logging.
	AccessLog io.Writer
}

// Serving defaults.
const (
	DefaultMaxInflight  = 64
	DefaultEvalTimeout  = 15 * time.Second
	DefaultDrainTimeout = 10 * time.Second
	DefaultCacheSize    = 1024
	DefaultTraceBuffer  = 256
)

// runtimeSampleInterval paces the background runtime-gauge collector
// (goroutines, heap, GC) started by Serve.
const runtimeSampleInterval = time.Second

func (c Config) maxInflight() int {
	if c.MaxInflight <= 0 {
		return DefaultMaxInflight
	}
	return c.MaxInflight
}

func (c Config) evalTimeout() time.Duration {
	if c.EvalTimeout <= 0 {
		return DefaultEvalTimeout
	}
	return c.EvalTimeout
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout <= 0 {
		return DefaultDrainTimeout
	}
	return c.DrainTimeout
}

func (c Config) traceBuffer() int {
	if c.TraceBuffer <= 0 {
		return DefaultTraceBuffer
	}
	return c.TraceBuffer
}

// Server is the HTTP evaluation service. Create one with NewServer; it
// is safe for concurrent use by the stdlib HTTP stack.
type Server struct {
	*Front
	cfg    Config
	engine *scenario.Engine
	opt    *optimize.Optimizer // shares the engine's solver cache

	sem    chan struct{}                 // admission slots for the heavy endpoints
	flight robust.Flight[string, []byte] // collapses concurrent identical queries
	memo   *KeyMemo                      // exact repeated body → fingerprint
	cache  *RespCache                    // fingerprint → rendered response

	inflight atomic.Int64

	// Instruments (nil-safe no-ops when obs is disabled).
	mSaturated *obs.Counter
	mSolves    *obs.Counter
	mShared    *obs.Counter
	mCacheHits *obs.Counter
	mCacheMiss *obs.Counter
	gInflight  *obs.Gauge
	solveCount atomic.Uint64 // underlying evaluations (the singleflight proof)

	// leaderGate, when non-nil, is called by every query kind's
	// singleflight leader right after the fault point, with the query's
	// fingerprint — the test hook that makes saturation, deadline, and
	// collapse behavior deterministic.
	leaderGate func(ctx context.Context, key string)
}

// Metric names published by this package. NewFront adds the tier's
// serve.requests, serve.responses.{2..5}xx, serve.latency_us and stage
// histograms.
const (
	MetricSaturated          = "serve.saturated"
	MetricEvalSolves         = "serve.eval.solves"
	MetricSingleflightShared = "serve.eval.singleflight.shared"
	MetricCacheHits          = "serve.cache.hits"
	MetricCacheMisses        = "serve.cache.misses"
	MetricInflight           = "serve.inflight"

	// Runtime gauges sampled by the background collector.
	MetricGoroutines  = "runtime.goroutines"
	MetricHeapBytes   = "runtime.heap_bytes"
	MetricGCPauseMS   = "runtime.gc_pause_total_ms"
	MetricGCLastPause = "runtime.gc_last_pause_us"
	MetricGCCycles    = "runtime.gc_cycles"
)

// latencyBounds are the request-latency histogram buckets in
// microseconds: 50µs .. 1s, roughly ×2.5 per bucket.
var latencyBounds = []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1e6}

// RegisterObs does nothing: NewServer resolves every serve metric, so
// /metrics has its whole shape before the first request. It remains only
// because perfbench, which builds against this module, still calls it.
func RegisterObs(*obs.Registry) {}

// replicaStages are the stages whose histograms a replica pre-resolves
// for every route.
var replicaStages = []string{
	StageTotal, StageAdmit, StageParse, StageFingerprint,
	StageCacheLookup, StageSingleflight, StageWrite,
}

// NewServer builds a Server over one shared scenario engine (and thus
// one solver cache for every request it will ever serve). Instruments
// are resolved from the process-default obs registry at construction,
// so install the registry (obs.SetDefault) before calling NewServer.
func NewServer(cfg Config) *Server {
	reg := obs.Default()
	s := &Server{
		cfg:        cfg,
		engine:     scenario.NewEngine(),
		sem:        make(chan struct{}, cfg.maxInflight()),
		memo:       NewKeyMemo(),
		cache:      NewRespCache(cfg.CacheSize),
		mSaturated: reg.Counter(MetricSaturated),
		mSolves:    reg.Counter(MetricEvalSolves),
		mShared:    reg.Counter(MetricSingleflightShared),
		mCacheHits: reg.Counter(MetricCacheHits),
		mCacheMiss: reg.Counter(MetricCacheMisses),
		gInflight:  reg.Gauge(MetricInflight),
	}
	s.opt = optimize.NewWithCache(s.engine.Cache)
	s.Front = NewFront("serve", replicaStages, cfg.traceBuffer(), cfg.drainTimeout(), cfg.AccessLog, s.collectRuntime)
	s.SampleRuntime() // gauges hold real values before the collector's first tick
	s.Handle("GET /healthz", "", s.handleHealthz)
	s.Handle("POST /v1/experiments/{id}/run", "run", s.admit(s.handleExperimentRun))
	s.Handle("POST /v1/eval", evalQuery.route, handleQuery(s, evalQuery))
	s.Handle("POST /v1/optimize", optimizeQuery.route, handleQuery(s, optimizeQuery))
	s.Handle("GET /v1/cache", "cache", s.handleCacheGet)
	s.Handle("DELETE /v1/cache", "cache", s.handleCacheDelete)
	return s
}

// Solves returns the number of underlying scenario evaluations the
// server has performed — requests absorbed by the response cache or
// collapsed by singleflight do not count. It is the counter the
// concurrency tests (and loadgen reports) pin.
func (s *Server) Solves() uint64 { return s.solveCount.Load() }

// SharedFlights returns how many requests were served by another
// in-flight request's solve (singleflight waiters).
func (s *Server) SharedFlights() uint64 { return s.flight.Shared() }

// admit wraps a heavy handler with the bounded admission semaphore and
// the per-request deadline. A saturated server sheds immediately with
// 429 + Retry-After rather than queueing unbounded work behind the
// listener.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Chaos hook: a BANDWALL_FAULTS plan can fail admission here.
		// Domain faults map to 400, contained panics to 500; anything else
		// sheds like saturation (503 + Retry-After), the deterministic way
		// to make one replica refuse work without killing it.
		if err := robust.Safe(func() error { return robust.Hit(r.Context(), "serve.admit") }); err != nil {
			status, kind := classify(err)
			if status == http.StatusInternalServerError && kind == KindInternal {
				status, kind = http.StatusServiceUnavailable, KindUnavailable
			}
			WriteError(w, r, status, kind, err)
			return
		}
		admitSpan := obs.StartTraceSpanLeaf(r.Context(), StageAdmit)
		select {
		case s.sem <- struct{}{}:
		default:
			admitSpan.End()
			s.mSaturated.Inc()
			WriteError(w, r, http.StatusTooManyRequests, KindSaturated,
				fmt.Errorf("server at capacity (%d in-flight requests)", cap(s.sem)))
			return
		}
		admitSpan.End()
		s.gInflight.Set(float64(s.inflight.Add(1)))
		defer func() {
			<-s.sem
			s.gInflight.Set(float64(s.inflight.Add(-1)))
		}()

		ctx, cancel, err := RequestContext(r, s.cfg.evalTimeout())
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, KindBadRequest, err)
			return
		}
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// RequestContext derives a request's deadline: def, lowered (never
// raised) by ?timeout=D. A timeout that is not a positive Go duration
// is an error, which both tiers answer with 400 "bad_request".
func RequestContext(r *http.Request, def time.Duration) (context.Context, context.CancelFunc, error) {
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout %q (want a positive Go duration)", q)
		}
		def = min(def, d)
	}
	ctx, cancel := context.WithTimeout(r.Context(), def)
	return ctx, cancel, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SampleRuntime reads the Go runtime's health signals into the obs
// gauges behind /metrics: goroutine count, live heap, cumulative and
// most-recent GC pause, GC cycle count. Serve runs it on a ticker; it
// is exported so embedders without a Serve loop can sample on demand.
// It keeps runtime.ReadMemStats, which stops the world, because
// runtime/metrics holds GC pauses only as a bucketed histogram, with no
// exact total and no last pause; the coarse tick bounds the cost.
func (s *Server) SampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge(MetricGoroutines).Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge(MetricHeapBytes).Set(float64(ms.HeapAlloc))
	s.reg.Gauge(MetricGCPauseMS).Set(float64(ms.PauseTotalNs) / 1e6)
	last := s.reg.Gauge(MetricGCLastPause) // resolved before the first GC too, so /metrics keeps its shape
	if ms.NumGC > 0 {
		last.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e3)
	}
	s.reg.Gauge(MetricGCCycles).Set(float64(ms.NumGC))
}

// collectRuntime samples runtime gauges until ctx is done. ReadMemStats
// briefly stops the world, so it runs on a fixed coarse tick, never
// per request.
func (s *Server) collectRuntime(ctx context.Context) {
	t := time.NewTicker(runtimeSampleInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.SampleRuntime()
		}
	}
}
