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
//     stale reserve (a serve.RespCache), marked X-Bandwall-Degraded:
//     stale — else 503 with Retry-After.
//
// The gateway runs on serve's Front, the HTTP plumbing a replica runs
// on: it counts, traces, logs and writes errors with serve's code, names
// its series fleet.*, and answers GET /metrics, GET /v1/trace,
// GET /v1/catalog, GET /v1/experiments and POST /v1/validate itself,
// byte-identical to a replica. Its X-Bandwall-Trace names its own trace,
// whose top-level stages are parse, fingerprint, forward and write; the
// replica's trace ID is the trace's replica_trace attribute.
//
// Eval and optimize share one gateway handler. It keys the body with
// serve.ReadKey, the replica's own first half, so the gateway and the
// replica derive a body's fingerprint the same way by construction. A
// serve.KeyMemo in front of the key function routes a repeated body
// without parsing it, once its owning replica has answered it from its
// response cache.
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
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
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
	DefaultHedgeQuantile    = 0.9
	DefaultStaleCacheSize   = 256
	DefaultDrainTimeout     = 10 * time.Second
)

// Config tunes one Gateway. Replicas is required; everything else
// defaults per the constants above.
type Config struct {
	// Replicas are the serve-tier base URLs ("http://host:port"). Order
	// does not matter for routing: rendezvous hashing is order-free.
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
	// HealthInterval paces the active health sweep.
	HealthInterval time.Duration
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

func (c Config) staleCacheSize() int {
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

// healthTimeout bounds each active health probe; the cache fan-out gets
// four of them.
const healthTimeout = time.Second

// Metric names published by this package, beside the front's
// fleet.requests, fleet.responses.{2..5}xx, fleet.latency_us and
// fleet.stage_us.{route}.{stage}.
const (
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

// gatewayStages are the stages whose histograms the gateway pre-resolves
// for every route.
var gatewayStages = []string{serve.StageTotal, serve.StageParse, serve.StageFingerprint, serve.StageForward, serve.StageWrite}

// Gateway is the fleet front tier. Create one with NewGateway.
type Gateway struct {
	*serve.Front
	cfg      Config
	replicas []*replica
	client   *http.Client
	memo     *serve.KeyMemo   // exact repeated body → routing fingerprint
	stale    *serve.RespCache // routing key → last-known-good answer

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
		stale: serve.NewRespCache(cfg.staleCacheSize()),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        128,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
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
	g.Front = serve.NewFront("fleet", gatewayStages, serve.DefaultTraceBuffer, cfg.drainTimeout(), cfg.AccessLog, g.checkHealth)
	g.Handle("GET /healthz", "", g.handleHealthz)
	g.Handle("POST /v1/eval", "eval", g.handleQuery("eval"))
	g.Handle("POST /v1/optimize", "optimize", g.handleQuery("optimize"))
	g.Handle("POST /v1/experiments/{id}/run", "run", g.handleExperimentRun)
	g.Handle("GET /v1/cache", "cache", g.handleCacheGet)
	g.Handle("DELETE /v1/cache", "cache", g.handleCacheDelete)
	return g, nil
}

// relay copies a buffered upstream response to the client, stamping the
// replica that produced it. X-Bandwall-Trace keeps the gateway's own
// trace; the replica's becomes the replica_trace attribute.
func (g *Gateway) relay(w http.ResponseWriter, tr *obs.Trace, res *proxyResult) {
	for _, h := range []string{"Content-Type", serve.CacheHeader, "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	tr.SetAttr("replica", res.rep.base)
	tr.SetAttr("replica_trace", res.header.Get(serve.TraceHeader))
	w.Header().Set(ReplicaHeader, res.rep.base)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// proxy POSTs body to path along order with fwd (forward, or
// forwardHedged) as the request's forward stage, under its deadline
// budget, then answers through finish with key as the stale-reserve key.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, fwd forwarder, order []*replica, path string, body []byte, key string) *proxyResult {
	ctx, cancel, err := serve.RequestContext(r, g.cfg.timeout())
	if err != nil {
		serve.WriteError(w, r, http.StatusBadRequest, serve.KindBadRequest, err)
		return nil
	}
	defer cancel()
	span := obs.StartTraceSpanLeaf(ctx, serve.StageForward)
	res, attempts, err := fwd(ctx, order, path, body)
	span.End()
	g.finish(w, r, res, attempts, err, key)
	return res
}

// finish applies the shared failure ladder after a forward chain, as the
// request's write stage: a definitive sub-5xx answer relays as-is;
// budget expiry, injected permanent faults and contained panics keep
// their taxonomy mapping; total failure falls back to the stale reserve
// for staleKey (if any), then to the last upstream 5xx, then to 503 +
// Retry-After.
func (g *Gateway) finish(w http.ResponseWriter, r *http.Request, res *proxyResult, attempts int, ferr error, staleKey string) {
	span := obs.StartTraceSpanLeaf(r.Context(), serve.StageWrite)
	defer span.End()
	tr := obs.TraceFrom(r.Context())
	n := strconv.Itoa(attempts)
	tr.SetAttr("attempts", n)
	w.Header().Set(AttemptsHeader, n)
	if ferr == nil && res != nil && res.status < http.StatusInternalServerError {
		if res.status == http.StatusOK && staleKey != "" {
			g.stale.Put(staleKey, res.body)
		}
		g.relay(w, tr, res)
		return
	}
	// A permanent fault (e.g. a contained injected panic in the proxy
	// path) is a gateway-side failure: the ring may be fine, so the stale
	// reserve is the wrong answer. It and budget expiry keep their
	// taxonomy mapping.
	if ferr != nil && !errors.Is(ferr, errNoReplica) && robust.Classify(ferr) != robust.Transient {
		serve.WriteModelError(w, r, ferr)
		return
	}
	if staleKey != "" {
		if body, ok := g.stale.Get(staleKey); ok {
			// Every 200 a replica answers on a keyed route is
			// application/json (serve's writeCached and WriteJSON), so the
			// reserve keeps bodies alone.
			g.mDegraded.Inc()
			tr.SetAttr("degraded", "stale")
			w.Header().Set(DegradedHeader, "stale")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			return
		}
	}
	if res != nil {
		// The last upstream 5xx carries a taxonomy body and a trace ID —
		// strictly more diagnosable than a synthetic gateway error.
		g.relay(w, tr, res)
		return
	}
	g.mUnavailable.Inc()
	if ferr == nil {
		ferr = errNoReplica
	}
	serve.WriteError(w, r, http.StatusServiceUnavailable, serve.KindUnavailable, ferr)
}

// handleQuery is the partitioned, hedged, failing-over route for one
// query kind. The gateway keys the body with serve.ReadKey first: that
// yields the routing fingerprint — the key the owning replica caches the
// answer under — and it means a domain-invalid spec is answered 400
// without consuming a single ring attempt, so the no-retry-on-400
// guarantee holds by construction. A body the key memo holds skips parse
// and fingerprint; the memo admits a body once its owning replica
// answers it from its response cache.
func (g *Gateway) handleQuery(route string) http.HandlerFunc {
	path := "/v1/" + route
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(AttemptsHeader, "0") // until the body reaches the ring
		body, fp, memoHit, ok := serve.ReadKey(w, r, route, g.memo)
		switch {
		case memoHit:
			g.mMemoHits.Inc()
		case body != nil: // read, then parsed: an unparseable body missed too
			g.mMemoMisses.Inc()
		}
		if !ok {
			return
		}
		res := g.proxy(w, r, g.forwardHedged, rendezvousOrder(g.replicas, fp), path, body, fp)
		if !memoHit && res != nil && res.status == http.StatusOK && res.header.Get(serve.CacheHeader) == "hit" {
			g.memo.Put(route, body, fp)
		}
	}
}

// handleExperimentRun routes a reproduction run by its experiment id,
// so repeated runs of one experiment hit the same replica's caches.
func (g *Gateway) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	key := "exp|" + id
	g.proxy(w, r, g.forward, rendezvousOrder(g.replicas, key), "/v1/experiments/"+url.PathEscape(id)+"/run", nil, key)
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
	ctx, cancel := context.WithTimeout(r.Context(), 4*healthTimeout)
	defer cancel()
	out.Replicas = make(map[string]json.RawMessage, len(g.replicas))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			res, err := g.attempt(ctx, rep, method, "/v1/cache", query, nil, 0)
			mu.Lock()
			defer mu.Unlock()
			if err == nil && res.status >= 300 {
				err = fmt.Errorf("status %d: %s", res.status, strings.TrimSpace(string(res.body)))
			}
			if err == nil {
				out.Replicas[rep.base] = json.RawMessage(res.body)
				return
			}
			if out.Errors == nil {
				out.Errors = make(map[string]string)
			}
			out.Errors[rep.base] = err.Error()
		}(rep)
	}
	wg.Wait()
	serve.WriteJSON(w, http.StatusOK, out)
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
	case g.Draining():
		resp.Status = "draining"
	case available == 0:
		resp.Status = "no replicas available"
	default:
		resp.Status = "ok"
		serve.WriteJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Retry-After", "1")
	serve.WriteJSON(w, http.StatusServiceUnavailable, resp)
}
