// Package fleet is the fault-tolerant front tier over a fleet of
// bandwall serve replicas: an HTTP gateway that partitions the
// evaluation keyspace across replicas by consistent-hashing each spec's
// canonical fingerprint (rendezvous hashing — the same fingerprint the
// replicas key their response caches on, so each replica's cache holds
// a disjoint shard of the keyspace and fleet-wide cache capacity scales
// with replica count instead of replicating one working set N times).
//
// Around that routing core sit the reliability muscles:
//
//   - Active health checks plus passive per-request failure accounting
//     feed a per-replica three-state circuit breaker (closed → open →
//     half-open with single-probe admission), so a dead or sick replica
//     stops receiving traffic within a threshold of failures and
//     rejoins automatically after recovery.
//   - Bounded retry with capped exponential backoff fails over along
//     the rendezvous order on connect errors and 5xx responses. Client
//     faults — 400 "domain" above all — are never retried; in fact a
//     spec that fails validation never reaches the ring at all, because
//     the gateway parses it first to compute the routing fingerprint.
//   - Hedged requests: when the preferred replica hasn't answered
//     within its own recent latency quantile, a second attempt chain
//     starts on the next-choice replica and the first answer wins; the
//     loser is cancelled.
//   - Deadline budgets: each request's remaining budget is divided
//     across remaining attempts and forwarded to replicas as ?timeout=,
//     so failover never multiplies the client's worst-case latency, and
//     an exhausted budget is a taxonomy 504.
//   - Graceful degradation: on total ring failure the gateway serves
//     the last known good response for the fingerprint from a bounded
//     stale cache, marked X-Bandwall-Degraded: stale — else 503 with
//     Retry-After.
//
// Eval and optimize share one gateway handler. It routes on serve's own
// key function for the query kind (serve.EvalKey, serve.OptimizeKey), so
// the gateway and the replica derive a body's fingerprint the same way
// by construction, and it reads bodies, lowers ?timeout= and drains with
// serve's code too. A serve.KeyMemo in front of the key function routes a
// repeated body without parsing it, once its owning replica has answered
// it from its response cache.
//
// The gateway is itself drain-aware (SIGTERM flips /healthz to 503
// "draining" while in-flight requests finish) and chaos-ready: the
// BANDWALL_FAULTS plan grammar reaches its transport at the fleet.dial
// and fleet.proxy points, scoped by replica base URL.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/serve"
)

// Response headers added by the gateway.
const (
	// ReplicaHeader names the replica whose response this is.
	ReplicaHeader = "X-Bandwall-Replica"
	// AttemptsHeader is the number of proxy attempts the request cost
	// (1 = no failover; hedged requests sum both chains).
	AttemptsHeader = "X-Bandwall-Attempts"
	// DegradedHeader marks a response served from the stale reserve
	// because the whole ring was unavailable. Value: "stale".
	DegradedHeader = "X-Bandwall-Degraded"
)

// Gateway defaults.
const (
	DefaultTimeout          = 20 * time.Second
	DefaultMaxAttempts      = 3
	DefaultRetryBase        = 10 * time.Millisecond
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second
	DefaultHealthInterval   = 500 * time.Millisecond
	DefaultHealthTimeout    = time.Second
	DefaultHedgeQuantile    = 0.9
	DefaultStaleCacheSize   = 256
	DefaultDrainTimeout     = 10 * time.Second
)

// Config tunes one Gateway. Replicas is required; everything else
// defaults per the constants above.
type Config struct {
	// Replicas are the serve-tier base URLs ("http://host:port"). Order
	// does not matter for routing (rendezvous hashing is order-free), but
	// it is the tie-break order for round-robin routes.
	Replicas []string
	// Timeout is the default end-to-end deadline budget per proxied
	// request; a request may lower (never raise) it with ?timeout=D.
	Timeout time.Duration
	// MaxAttempts bounds proxy attempts (first try included) per request
	// chain.
	MaxAttempts int
	// RetryBase is the failover backoff before the second attempt; it
	// doubles per attempt, capped at robust.DefaultMaxDelay.
	RetryBase time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's breaker open.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe.
	BreakerCooldown time.Duration
	// HealthInterval paces the active health sweep; HealthTimeout bounds
	// each probe.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// HedgeQuantile is the per-replica latency quantile after which an
	// eval request is hedged to the next replica. 0 means
	// DefaultHedgeQuantile; negative disables hedging.
	HedgeQuantile float64
	// HedgeAfter, when positive, replaces the adaptive quantile trigger
	// with a fixed delay (tests and benchmarks).
	HedgeAfter time.Duration
	// StaleCacheSize bounds the last-known-good response reserve
	// (entries). 0 means DefaultStaleCacheSize; negative disables it.
	StaleCacheSize int
	// DrainTimeout bounds graceful shutdown.
	DrainTimeout time.Duration
	// AccessLog receives one slog line per request; nil disables.
	AccessLog io.Writer
}

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return DefaultTimeout
	}
	return c.Timeout
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return c.MaxAttempts
}

func (c Config) retryBase() time.Duration {
	if c.RetryBase < 0 {
		return 0
	}
	if c.RetryBase == 0 {
		return DefaultRetryBase
	}
	return c.RetryBase
}

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold <= 0 {
		return DefaultBreakerThreshold
	}
	return c.BreakerThreshold
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return c.BreakerCooldown
}

func (c Config) healthInterval() time.Duration {
	if c.HealthInterval <= 0 {
		return DefaultHealthInterval
	}
	return c.HealthInterval
}

func (c Config) healthTimeout() time.Duration {
	if c.HealthTimeout <= 0 {
		return DefaultHealthTimeout
	}
	return c.HealthTimeout
}

func (c Config) staleCacheSize() int {
	if c.StaleCacheSize < 0 {
		return 0
	}
	if c.StaleCacheSize == 0 {
		return DefaultStaleCacheSize
	}
	return c.StaleCacheSize
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout <= 0 {
		return DefaultDrainTimeout
	}
	return c.DrainTimeout
}

// Metric names published by this package.
const (
	MetricRequests     = "fleet.requests"
	MetricFailovers    = "fleet.failovers"
	MetricRetries      = "fleet.retries"
	MetricHedges       = "fleet.hedges"
	MetricHedgeWins    = "fleet.hedge.wins"
	MetricDegraded     = "fleet.degraded.stale"
	MetricUnavailable  = "fleet.unavailable"
	MetricBreakerOpens = "fleet.breaker.opens"
	MetricMemoHits     = "fleet.key_memo.hits"
	MetricMemoMisses   = "fleet.key_memo.misses"
)

// Gateway is the fleet front tier. Create one with NewGateway.
type Gateway struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	mux      *http.ServeMux
	memo     *serve.KeyMemo // exact repeated body → routing fingerprint
	stale    *staleCache
	reg      *obs.Registry

	draining  atomic.Bool
	rr        atomic.Uint64 // round-robin cursor for unkeyed routes
	accessLog *slog.Logger

	mReqs        *obs.Counter
	mFailover    *obs.Counter
	mRetries     *obs.Counter
	mHedges      *obs.Counter
	mHedgeWins   *obs.Counter
	mDegraded    *obs.Counter
	mUnavailable *obs.Counter
	mOpens       *obs.Counter
	mMemoHits    *obs.Counter
	mMemoMisses  *obs.Counter
}

// NewGateway builds a Gateway over the configured replica set.
func NewGateway(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	reg := obs.Default()
	g := &Gateway{
		cfg:   cfg,
		memo:  serve.NewKeyMemo(),
		stale: newStaleCache(cfg.staleCacheSize()),
		reg:   reg,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        128,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		mReqs:        reg.Counter(MetricRequests),
		mFailover:    reg.Counter(MetricFailovers),
		mRetries:     reg.Counter(MetricRetries),
		mHedges:      reg.Counter(MetricHedges),
		mHedgeWins:   reg.Counter(MetricHedgeWins),
		mDegraded:    reg.Counter(MetricDegraded),
		mUnavailable: reg.Counter(MetricUnavailable),
		mOpens:       reg.Counter(MetricBreakerOpens),
		mMemoHits:    reg.Counter(MetricMemoHits),
		mMemoMisses:  reg.Counter(MetricMemoMisses),
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			continue
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if seen[base] {
			return nil, fmt.Errorf("fleet: duplicate replica %s", base)
		}
		seen[base] = true
		rep := newReplica(base, cfg.breakerThreshold(), cfg.breakerCooldown())
		rep.br.onTrip = g.mOpens.Inc
		g.replicas = append(g.replicas, rep)
	}
	if len(g.replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	if cfg.AccessLog != nil {
		g.accessLog = slog.New(slog.NewTextHandler(cfg.AccessLog, nil))
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("POST /v1/eval", g.instrument("eval", g.handleQuery("/v1/eval", serve.EvalKey)))
	g.mux.HandleFunc("POST /v1/optimize", g.instrument("optimize", g.handleQuery("/v1/optimize", serve.OptimizeKey)))
	g.mux.HandleFunc("POST /v1/validate", g.instrument("validate", g.handleValidate))
	g.mux.HandleFunc("GET /v1/experiments", g.instrument("experiments", g.handleExperiments))
	g.mux.HandleFunc("POST /v1/experiments/{id}/run", g.instrument("run", g.handleExperimentRun))
	g.mux.HandleFunc("GET /v1/cache", g.instrument("cache", g.handleCacheGet))
	g.mux.HandleFunc("DELETE /v1/cache", g.instrument("cache", g.handleCacheDelete))
	return g, nil
}

type gwStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *gwStatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *gwStatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument counts requests and emits the access log line.
func (g *Gateway) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.mReqs.Inc()
		start := time.Now()
		sw := &gwStatusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if g.accessLog != nil {
			g.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "proxy",
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("dur", time.Since(start)),
				slog.String("replica", w.Header().Get(ReplicaHeader)),
				slog.String("attempts", w.Header().Get(AttemptsHeader)),
			)
		}
	}
}

// relay copies a buffered upstream response to the client, stamping the
// replica that produced it.
func (g *Gateway) relay(w http.ResponseWriter, res *proxyResult) {
	for _, h := range []string{"Content-Type", serve.TraceHeader, serve.CacheHeader, "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(ReplicaHeader, res.rep.base)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// finish applies the shared failure ladder after a forward chain: a
// definitive sub-5xx answer relays as-is; budget expiry is a taxonomy
// 504; injected permanent faults keep their taxonomy mapping; total
// failure falls back to the stale reserve for staleKey (if any), then
// to the last upstream 5xx, then to 503 + Retry-After.
func (g *Gateway) finish(w http.ResponseWriter, res *proxyResult, attempts int, ferr error, staleKey string) {
	w.Header().Set(AttemptsHeader, strconv.Itoa(attempts))
	if ferr == nil && res != nil && res.status < http.StatusInternalServerError {
		if res.status == http.StatusOK && staleKey != "" {
			g.stale.Put(staleKey, res.body, res.header.Get("Content-Type"))
		}
		g.relay(w, res)
		return
	}
	if ferr != nil {
		if robust.Classify(ferr) == robust.Canceled {
			writeErr(w, http.StatusGatewayTimeout, kindCanceled, ferr)
			return
		}
		if errors.Is(ferr, robust.ErrDomain) {
			writeErr(w, http.StatusBadRequest, kindDomain, ferr)
			return
		}
		// A permanent non-domain fault (e.g. a contained injected panic in
		// the proxy path) is a gateway-side failure: the ring may be fine,
		// so the stale reserve is the wrong answer — report it as 500.
		if !errors.Is(ferr, errNoReplica) && robust.Classify(ferr) == robust.Permanent {
			writeErr(w, http.StatusInternalServerError, kindInternal, ferr)
			return
		}
	}
	if staleKey != "" {
		if ent, ok := g.stale.Get(staleKey); ok {
			g.mDegraded.Inc()
			w.Header().Set(DegradedHeader, "stale")
			ct := ent.contentType
			if ct == "" {
				ct = "application/json"
			}
			w.Header().Set("Content-Type", ct)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(ent.body)
			return
		}
	}
	if res != nil {
		// The last upstream 5xx carries a taxonomy body and a trace ID —
		// strictly more diagnosable than a synthetic gateway error.
		g.relay(w, res)
		return
	}
	g.mUnavailable.Inc()
	if ferr == nil {
		ferr = errNoReplica
	}
	writeErr(w, http.StatusServiceUnavailable, kindUnavailable, ferr)
}

// handleQuery is the partitioned, hedged, failing-over route for one
// query kind. The gateway keys the body with serve's own key function
// first: that yields the routing fingerprint — the key the owning
// replica caches the answer under — and it means a domain-invalid spec
// is answered 400 without consuming a single ring attempt, so the
// no-retry-on-400 guarantee holds by construction. A body the key memo
// holds skips the key function; the memo admits a body once its owning
// replica answers it from its response cache.
func (g *Gateway) handleQuery(path string, key func(body []byte) (string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := serve.ReadSpec(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, kindBadRequest, err)
			return
		}
		fp, memoHit := g.memo.Get(path, body)
		if memoHit {
			g.mMemoHits.Inc()
		} else {
			g.mMemoMisses.Inc()
			if fp, err = key(body); err != nil {
				status, kind := http.StatusInternalServerError, kindInternal
				if errors.Is(err, robust.ErrDomain) {
					status, kind = http.StatusBadRequest, kindDomain
				}
				w.Header().Set(AttemptsHeader, "0")
				writeErr(w, status, kind, err)
				return
			}
		}
		ctx, cancel, err := serve.RequestContext(r, g.cfg.timeout())
		if err != nil {
			writeErr(w, http.StatusBadRequest, kindBadRequest, err)
			return
		}
		defer cancel()
		res, attempts, ferr := g.forwardHedged(ctx, rendezvousOrder(g.replicas, fp), http.MethodPost, path, body, true)
		if !memoHit && res != nil && res.status == http.StatusOK && res.header.Get(serve.CacheHeader) == "hit" {
			g.memo.Put(path, body, fp)
		}
		g.finish(w, res, attempts, ferr, fp)
	}
}

// handleValidate fans a validation request to any healthy replica —
// validation is stateless, so round-robin spreads the parse load.
func (g *Gateway) handleValidate(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadSpec(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, kindBadRequest, err)
		return
	}
	ctx, cancel, err := serve.RequestContext(r, g.cfg.timeout())
	if err != nil {
		writeErr(w, http.StatusBadRequest, kindBadRequest, err)
		return
	}
	defer cancel()
	res, attempts, ferr := g.forward(ctx, g.rrOrder(), http.MethodPost, "/v1/validate", body, false)
	g.finish(w, res, attempts, ferr, "")
}

// handleExperiments round-robins the read-only experiment listing.
func (g *Gateway) handleExperiments(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := serve.RequestContext(r, g.cfg.timeout())
	if err != nil {
		writeErr(w, http.StatusBadRequest, kindBadRequest, err)
		return
	}
	defer cancel()
	res, attempts, ferr := g.forward(ctx, g.rrOrder(), http.MethodGet, "/v1/experiments", nil, false)
	g.finish(w, res, attempts, ferr, "")
}

// handleExperimentRun routes a reproduction run by its experiment id,
// so repeated runs of one experiment hit the same replica's caches.
func (g *Gateway) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx, cancel, err := serve.RequestContext(r, g.cfg.timeout())
	if err != nil {
		writeErr(w, http.StatusBadRequest, kindBadRequest, err)
		return
	}
	defer cancel()
	key := "exp|" + id
	order := rendezvousOrder(g.replicas, key)
	res, attempts, ferr := g.forward(ctx, order, http.MethodPost, "/v1/experiments/"+url.PathEscape(id)+"/run", nil, true)
	g.finish(w, res, attempts, ferr, key)
}

// CacheFanout is the GET /v1/cache aggregation body: each replica's own
// cache introspection (raw), or an error string for unreachable ones.
type CacheFanout struct {
	Replicas map[string]json.RawMessage `json:"replicas"`
	Errors   map[string]string          `json:"errors,omitempty"`
	// StalePurged and KeyMemoPurged report how many entries DELETE
	// dropped from the gateway's own stale-response reserve and key memo
	// (absent on GET).
	StalePurged   *int `json:"stale_purged,omitempty"`
	KeyMemoPurged *int `json:"key_memo_purged,omitempty"`
}

// handleCacheGet fans the cache introspection out to every replica and
// aggregates — the fleet-wide view that shows the keyspace partition.
func (g *Gateway) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	g.fanout(w, r, http.MethodGet, r.URL.RawQuery, CacheFanout{})
}

// handleCacheDelete purges every replica's caches — and the gateway's own
// stale-response reserve and key memo in the same operation. The reserve
// holds last-known-good bodies for degraded serving; leaving it populated
// after an operator-requested invalidation would let a post-purge
// total-ring failure serve exactly the results the operator just
// invalidated. The memo cannot go stale, but the endpoint's contract is
// that it empties every cache.
func (g *Gateway) handleCacheDelete(w http.ResponseWriter, r *http.Request) {
	stale, memo := g.stale.Purge(), g.memo.Purge()
	g.fanout(w, r, http.MethodDelete, "", CacheFanout{StalePurged: &stale, KeyMemoPurged: &memo})
}

// handleCacheGet and handleCacheDelete share fanout, which fills out's
// per-replica maps.
func (g *Gateway) fanout(w http.ResponseWriter, r *http.Request, method, query string, out CacheFanout) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.healthTimeout()*4)
	defer cancel()
	out.Replicas = make(map[string]json.RawMessage, len(g.replicas))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			res, err := g.attempt(ctx, rep, method, "/v1/cache", query, nil, 0, false)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if out.Errors == nil {
					out.Errors = make(map[string]string)
				}
				out.Errors[rep.base] = err.Error()
				return
			}
			if res.status >= 300 {
				if out.Errors == nil {
					out.Errors = make(map[string]string)
				}
				out.Errors[rep.base] = fmt.Sprintf("status %d: %s", res.status, strings.TrimSpace(string(res.body)))
				return
			}
			out.Replicas[rep.base] = json.RawMessage(res.body)
		}(rep)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

// ReplicaStatus is one replica's health view in the gateway /healthz
// body.
type ReplicaStatus struct {
	Base    string `json:"base"`
	Breaker string `json:"breaker"`
	Healthy bool   `json:"healthy"`
	Opens   uint64 `json:"breaker_opens"`
	Hits    uint64 `json:"proxy_attempts"`
}

// HealthResponse is the gateway /healthz body.
type HealthResponse struct {
	Status   string          `json:"status"`
	Replicas []ReplicaStatus `json:"replicas"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Replicas: make([]ReplicaStatus, 0, len(g.replicas))}
	available := 0
	for _, rep := range g.replicas {
		st := rep.br.State()
		if st != stateOpen {
			available++
		}
		resp.Replicas = append(resp.Replicas, ReplicaStatus{
			Base:    rep.base,
			Breaker: st.String(),
			Healthy: rep.healthy.Load(),
			Opens:   rep.br.Opens(),
			Hits:    rep.hits.Load(),
		})
	}
	switch {
	case g.draining.Load():
		resp.Status = "draining"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case available == 0:
		resp.Status = "no replicas available"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
	default:
		resp.Status = "ok"
		writeJSON(w, http.StatusOK, resp)
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if g.reg == nil {
		writeErr(w, http.StatusServiceUnavailable, kindInternal,
			fmt.Errorf("metrics collection is disabled (no obs registry installed)"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	serve.WriteMetricsText(w, g.reg)
}

// ListenAndServe serves on addr until ctx is canceled, then drains like
// the serve tier: readiness flips to 503 "draining" before the listener
// closes, in-flight proxies finish within DrainTimeout, a clean drain
// returns nil. It also owns the active health checker's lifetime.
func (g *Gateway) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(l.Addr())
	}
	return g.Serve(ctx, l)
}

// Serve is ListenAndServe over an existing listener. It owns l and
// closes it on return.
func (g *Gateway) Serve(ctx context.Context, l net.Listener) error {
	return serve.ServeAndDrain(ctx, l, g.mux, g.cfg.drainTimeout(), &g.draining, g.checkHealth)
}

// rrOrder rotates the replica list by an atomic cursor: the failover
// order for routes with no cache affinity.
func (g *Gateway) rrOrder() []*replica {
	n := len(g.replicas)
	start := int(g.rr.Add(1)-1) % n
	out := make([]*replica, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.replicas[(start+i)%n])
	}
	return out
}
