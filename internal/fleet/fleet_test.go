package fleet

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// errBody is the JSON error body both tiers write.
type errBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	Trace string `json:"trace"`
}

// specWithID builds a trivially distinct one-case spec (same shape the
// serve tests use), so each id routes and caches under its own
// fingerprint.
func specWithID(id string, n2 float64) string {
	return fmt.Sprintf(`{"id":%q,"axis":{"n2":[%g]},"cases":[{"label":"BASE","value_key":"cores"}]}`, id, n2)
}

// staleLen is the occupancy of the gateway's stale reserve.
func staleLen(g *Gateway) int { return g.stale.Info(0).Entries }

// installPlan parses a fault-plan spec and installs it as the process
// injector, returning the restore function.
func installPlan(t *testing.T, spec string) (restore func()) {
	t.Helper()
	plan, err := robust.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return robust.SetInjector(robust.NewInjector(plan))
}

// fingerprintOf computes the routing fingerprint the gateway will use
// for an eval body: serve's parse, then its fingerprint.
func fingerprintOf(t *testing.T, body string) string {
	t.Helper()
	sp, err := scenario.ParseSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := serve.FingerprintSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// stubReplica is a switchable fake serve replica: mode selects the
// behavior of POST /v1/eval; /healthz always answers 200.
type stubReplica struct {
	ts    *httptest.Server
	mode  atomic.Int32 // 0 = 200 JSON, 1 = 500, 2 = hang until ctx done then 500
	calls atomic.Uint64
	// canceled flips when a hanging request saw its context cancelled —
	// the hedge-loser proof.
	canceled atomic.Bool
	// cacheHit makes 200 answers carry X-Bandwall-Cache: hit, as a real
	// replica's response-cache hits do.
	cacheHit atomic.Bool
}

const (
	stubOK int32 = iota
	stub500
	stubHang
)

func newStubReplica(t *testing.T) *stubReplica {
	t.Helper()
	s := &stubReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/eval", func(w http.ResponseWriter, r *http.Request) {
		s.calls.Add(1)
		// Drain the body like a real replica would: the stdlib server only
		// watches for client disconnects (cancelling r.Context) once the
		// request body has been consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		switch s.mode.Load() {
		case stub500:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(w, `{"error":"stub failure","kind":"internal"}`)
		case stubHang:
			select {
			case <-r.Context().Done():
				s.canceled.Store(true)
			case <-time.After(10 * time.Second):
			}
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Header().Set("Content-Type", "application/json")
			if s.cacheHit.Load() {
				w.Header().Set(serve.CacheHeader, "hit")
			}
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, `{"stub":"`+s.ts.URL+`"}`)
		}
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

// newTestGateway stands up n stub replicas and a gateway over them with
// fast, deterministic settings (no hedging, no active health loop —
// tests drive the handler directly). Overrides are applied to cfg
// before construction.
func newTestGateway(t *testing.T, n int, override func(*Config)) (*Gateway, []*stubReplica) {
	t.Helper()
	prev := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(prev) })
	stubs := make([]*stubReplica, n)
	bases := make([]string, n)
	for i := range stubs {
		stubs[i] = newStubReplica(t)
		bases[i] = stubs[i].ts.URL
	}
	cfg := Config{
		Replicas:      bases,
		Timeout:       5 * time.Second,
		RetryBase:     time.Millisecond,
		HedgeQuantile: -1, // hedging off unless a test opts in
	}
	if override != nil {
		override(&cfg)
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, stubs
}

// stubByBase maps a gateway replica order back to the test's stubs.
func stubByBase(stubs []*stubReplica, base string) *stubReplica {
	for _, s := range stubs {
		if s.ts.URL == base {
			return s
		}
	}
	return nil
}

func postGateway(t *testing.T, g *Gateway, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	return w
}

func TestRendezvousOrderDeterministicAndSpread(t *testing.T) {
	g, _ := newTestGateway(t, 3, nil)
	heads := map[string]int{}
	for i := 0; i < 30; i++ {
		key := fingerprintOf(t, specWithID(fmt.Sprintf("rv-%d", i), 16))
		o1 := rendezvousOrder(g.replicas, key)
		o2 := rendezvousOrder(g.replicas, key)
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("key %s: order not deterministic at position %d", key[:12], j)
			}
		}
		if len(o1) != 3 {
			t.Fatalf("order has %d replicas, want 3", len(o1))
		}
		heads[o1[0].base]++
	}
	if len(heads) != 3 {
		t.Errorf("30 keys mapped onto only %d of 3 replicas: %v", len(heads), heads)
	}
}

// TestRendezvousSpreadManyRings: across many seeded three-replica
// loopback rings on nearby ports, each routing 30 random fingerprints,
// a replica is left owning no key about as rarely as uniform hashing
// predicts (3·(2/3)^30 ≈ 1.6e-5 per ring, 0.16 expected here). Raw
// FNV-1a scores left ~0.09 % of rings with an empty replica (≈9 here).
func TestRendezvousSpreadManyRings(t *testing.T) {
	const rings, keys = 10000, 30
	rng := rand.New(rand.NewSource(1))
	var key [32]byte
	empty := 0
	for r := 0; r < rings; r++ {
		port := 32768 + rng.Intn(28000)
		ports := map[int]bool{port: true}
		for len(ports) < 3 {
			ports[port+rng.Intn(201)] = true
		}
		var reps []*replica
		for p := range ports {
			reps = append(reps, newReplica(fmt.Sprintf("http://127.0.0.1:%d", p), 1, time.Second))
		}
		owned := map[*replica]int{}
		for k := 0; k < keys; k++ {
			rng.Read(key[:])
			owned[rendezvousOrder(reps, hex.EncodeToString(key[:]))[0]]++
		}
		if len(owned) < 3 {
			empty++
		}
	}
	if empty > 2 {
		t.Errorf("%d of %d rings left a replica with none of %d keys, want at most 2", empty, rings, keys)
	}
}

func TestEvalRoutesToOwnerAndSticks(t *testing.T) {
	g, _ := newTestGateway(t, 3, nil)
	body := specWithID("route-stick", 16)
	owner := rendezvousOrder(g.replicas, fingerprintOf(t, body))[0].base
	for i := 0; i < 3; i++ {
		w := postGateway(t, g, "/v1/eval", body)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
		if got := w.Header().Get(ReplicaHeader); got != owner {
			t.Errorf("request %d went to %s, want owner %s", i, got, owner)
		}
		if got := w.Header().Get(AttemptsHeader); got != "1" {
			t.Errorf("request %d attempts = %s, want 1", i, got)
		}
	}
}

func TestEvalFailoverOn5xx(t *testing.T) {
	g, stubs := newTestGateway(t, 3, nil)
	body := specWithID("failover-5xx", 16)
	order := rendezvousOrder(g.replicas, fingerprintOf(t, body))
	stubByBase(stubs, order[0].base).mode.Store(stub500)

	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(ReplicaHeader); got != order[1].base {
		t.Errorf("served by %s, want second-choice %s", got, order[1].base)
	}
	if got := w.Header().Get(AttemptsHeader); got != "2" {
		t.Errorf("attempts = %s, want 2", got)
	}
}

func TestEvalFailoverOnConnectError(t *testing.T) {
	g, stubs := newTestGateway(t, 3, nil)
	body := specWithID("failover-conn", 16)
	order := rendezvousOrder(g.replicas, fingerprintOf(t, body))
	stubByBase(stubs, order[0].base).ts.Close() // kill -9, as far as TCP is concerned

	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(ReplicaHeader); got != order[1].base {
		t.Errorf("served by %s, want second-choice %s", got, order[1].base)
	}
}

func TestEvalBreakerOpensAndSkipsDeadReplica(t *testing.T) {
	g, stubs := newTestGateway(t, 3, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Hour // never half-opens during the test
	})
	body := specWithID("breaker-skip", 16)
	order := rendezvousOrder(g.replicas, fingerprintOf(t, body))
	bad := stubByBase(stubs, order[0].base)
	bad.mode.Store(stub500)

	// Two failovers feed two passive failures: the breaker trips.
	for i := 0; i < 2; i++ {
		if w := postGateway(t, g, "/v1/eval", body); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	if st := order[0].br.State(); st != stateOpen {
		t.Fatalf("owner breaker = %v, want open after threshold failures", st)
	}
	callsBefore := bad.calls.Load()
	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := w.Header().Get(AttemptsHeader); got != "1" {
		t.Errorf("attempts with open breaker = %s, want 1 (dead replica skipped)", got)
	}
	if bad.calls.Load() != callsBefore {
		t.Error("open breaker still routed traffic to the dead replica")
	}
}

// TestDomainErrorNeverReachesRing pins the no-retry-on-400 guarantee
// for every query kind: a domain-invalid spec is answered by the
// gateway itself, with serve's taxonomy and zero ring attempts.
func TestDomainErrorNeverReachesRing(t *testing.T) {
	for _, tc := range []struct{ name, path, body string }{
		// Structurally valid JSON that fails validation: an unknown
		// technique name → robust.ErrDomain.
		{"eval", "/v1/eval", `{"id":"dom","axis":{"n2":[16]},"cases":[{"label":"X","value_key":"v","stack":[{"name":"NOPE"}]}]}`},
		{"optimize", "/v1/optimize", `{"id":"bad","n2":-1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := newTestGateway(t, 3, nil)
			w := postGateway(t, g, tc.path, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
			}
			var ge errBody
			if err := json.Unmarshal(w.Body.Bytes(), &ge); err != nil {
				t.Fatalf("error body not JSON: %v\n%s", err, w.Body)
			}
			if ge.Kind != serve.KindDomain {
				t.Errorf("kind = %q, want %q", ge.Kind, serve.KindDomain)
			}
			if got := w.Header().Get(AttemptsHeader); got != "0" {
				t.Errorf("attempts = %q, want 0 (domain errors must not be proxied, let alone retried)", got)
			}
			for _, rep := range g.replicas {
				if hits := rep.hits.Load(); hits != 0 {
					t.Errorf("replica %s saw %d proxy attempts for a domain-invalid spec", rep.base, hits)
				}
			}
		})
	}
}

// TestOversizedBodyNeverReachesRing: a body one byte over serve's limit
// is refused by the gateway with 400 "bad_request", on both query routes
// and on /v1/validate, without a single replica attempt.
func TestOversizedBodyNeverReachesRing(t *testing.T) {
	g, _ := newTestGateway(t, 3, nil)
	big := strings.Repeat(" ", 1<<20+1)
	for _, path := range []string{"/v1/eval", "/v1/optimize", "/v1/validate"} {
		w := postGateway(t, g, path, big)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", path, w.Code, w.Body)
			continue
		}
		var ge errBody
		if err := json.Unmarshal(w.Body.Bytes(), &ge); err != nil {
			t.Fatalf("%s: error body not JSON: %v", path, err)
		}
		if ge.Kind != serve.KindBadRequest || ge.Error != "spec exceeds 1048576 bytes" {
			t.Errorf("%s: error = %+v, want bad_request \"spec exceeds 1048576 bytes\"", path, ge)
		}
	}
	for _, rep := range g.replicas {
		if hits := rep.hits.Load(); hits != 0 {
			t.Errorf("replica %s saw %d proxy attempts for oversized bodies", rep.base, hits)
		}
	}
}

func TestBudgetExhaustedIs504(t *testing.T) {
	g, stubs := newTestGateway(t, 2, func(c *Config) {
		c.Timeout = 80 * time.Millisecond
	})
	for _, s := range stubs {
		s.mode.Store(stubHang)
	}
	start := time.Now()
	w := postGateway(t, g, "/v1/eval", specWithID("budget", 16))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body)
	}
	var ge errBody
	_ = json.Unmarshal(w.Body.Bytes(), &ge)
	if ge.Kind != serve.KindCanceled {
		t.Errorf("kind = %q, want %q", ge.Kind, serve.KindCanceled)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("budget-bound request took %s", el)
	}
}

func TestStaleDegradedServing(t *testing.T) {
	g, stubs := newTestGateway(t, 2, nil)
	body := specWithID("stale", 16)

	// Warm the stale reserve with a healthy answer.
	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("warmup status %d", w.Code)
	}
	fresh := w.Body.String()
	if staleLen(g) != 1 {
		t.Fatalf("stale reserve = %d entries, want 1", staleLen(g))
	}

	// Total ring failure: every replica gone.
	for _, s := range stubs {
		s.ts.Close()
	}
	w = postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded status %d, want 200 from the stale reserve: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(DegradedHeader); got != "stale" {
		t.Errorf("%s = %q, want %q", DegradedHeader, got, "stale")
	}
	if got := w.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("degraded Content-Type = %q, want application/json", got)
	}
	if w.Body.String() != fresh {
		t.Error("degraded body differs from the cached fresh response")
	}

	// A fingerprint with no reserve entry degrades to 503 + Retry-After.
	w = postGateway(t, g, "/v1/eval", specWithID("stale-miss", 16))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncached degraded status %d, want 503: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var ge errBody
	_ = json.Unmarshal(w.Body.Bytes(), &ge)
	if ge.Kind != serve.KindUnavailable {
		t.Errorf("kind = %q, want %q", ge.Kind, serve.KindUnavailable)
	}
}

// TestStaleReserveDisabled pins StaleCacheSize < 0: the gateway keeps no
// reserve, so a total ring failure answers 503 even for a spec it has
// answered before, and never marks a response degraded.
func TestStaleReserveDisabled(t *testing.T) {
	g, stubs := newTestGateway(t, 2, func(c *Config) { c.StaleCacheSize = -1 })
	body := specWithID("stale-off", 16)
	if w := postGateway(t, g, "/v1/eval", body); w.Code != http.StatusOK {
		t.Fatalf("warmup status %d", w.Code)
	}
	if n := staleLen(g); n != 0 {
		t.Fatalf("disabled stale reserve holds %d entries", n)
	}
	for _, s := range stubs {
		s.ts.Close()
	}
	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with the reserve disabled, want 503: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(DegradedHeader); got != "" {
		t.Errorf("%s = %q on a 503, want none", DegradedHeader, got)
	}
}

func TestHedgeWinnerAndLoserCancelled(t *testing.T) {
	g, stubs := newTestGateway(t, 2, func(c *Config) {
		c.HedgeQuantile = DefaultHedgeQuantile
		c.HedgeAfter = 20 * time.Millisecond
		c.MaxAttempts = 1 // isolate hedging from failover
	})
	body := specWithID("hedge", 16)
	order := rendezvousOrder(g.replicas, fingerprintOf(t, body))
	slow := stubByBase(stubs, order[0].base)
	slow.mode.Store(stubHang)

	reg := obs.Default()
	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from the hedge: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(ReplicaHeader); got != order[1].base {
		t.Errorf("served by %s, want hedge target %s", got, order[1].base)
	}
	if n := reg.Counter(MetricHedges).Value(); n != 1 {
		t.Errorf("hedges = %d, want 1", n)
	}
	if n := reg.Counter(MetricHedgeWins).Value(); n != 1 {
		t.Errorf("hedge wins = %d, want 1", n)
	}
	// The loser's in-flight request must be cancelled promptly — its
	// handler observes ctx.Done firing, not the 10s hang elapsing.
	deadline := time.Now().Add(2 * time.Second)
	for !slow.canceled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("hedge loser's request context was never cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayHealthzReportsBreakers(t *testing.T) {
	g, stubs := newTestGateway(t, 2, func(c *Config) { c.BreakerThreshold = 1 })
	body := specWithID("hz", 16)
	order := rendezvousOrder(g.replicas, fingerprintOf(t, body))
	stubByBase(stubs, order[0].base).mode.Store(stub500)
	if w := postGateway(t, g, "/v1/eval", body); w.Code != http.StatusOK {
		t.Fatalf("eval status %d", w.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d (one replica is still fine): %s", w.Code, w.Body)
	}
	var hr HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || len(hr.Replicas) != 2 {
		t.Fatalf("health = %+v", hr)
	}
	states := map[string]string{}
	for _, rs := range hr.Replicas {
		states[rs.Base] = rs.Breaker
	}
	if states[order[0].base] != "open" {
		t.Errorf("failed replica breaker = %q, want open", states[order[0].base])
	}
	if states[order[1].base] != "closed" {
		t.Errorf("healthy replica breaker = %q, want closed", states[order[1].base])
	}
}

func TestInjectedDialFaultFailsOver(t *testing.T) {
	g, _ := newTestGateway(t, 2, nil)
	body := specWithID("inject-dial", 16)
	order := rendezvousOrder(g.replicas, fingerprintOf(t, body))

	// A transient dial fault scoped to the preferred replica: the gateway
	// must fail over without the replica ever seeing the request.
	defer installPlan(t, "fleet.dial@"+order[0].base+"=transient x1")()

	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(ReplicaHeader); got != order[1].base {
		t.Errorf("served by %s, want %s", got, order[1].base)
	}
	if got := w.Header().Get(AttemptsHeader); got != "2" {
		t.Errorf("attempts = %s, want 2", got)
	}
}

func TestInjectedProxyPanicIsContained(t *testing.T) {
	g, _ := newTestGateway(t, 2, func(c *Config) { c.MaxAttempts = 2 })
	body := specWithID("inject-panic", 16)
	order := rendezvousOrder(g.replicas, fingerprintOf(t, body))
	defer installPlan(t, "fleet.proxy@"+order[0].base+"=panic x1")()

	// The injected panic is contained by robust.Safe at the injection
	// point and classified Permanent → surfaced, not retried, and the
	// process survives.
	w := postGateway(t, g, "/v1/eval", body)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 for a contained proxy panic: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(AttemptsHeader); got != "1" {
		t.Errorf("attempts = %s, want 1 (permanent faults are not retried)", got)
	}
	var ge errBody
	if err := json.Unmarshal(w.Body.Bytes(), &ge); err != nil || ge.Kind != serve.KindPanic {
		t.Errorf("kind = %q (err %v), want %q", ge.Kind, err, serve.KindPanic)
	}
}

// serveLocal sends one request to h and returns the recorded response.
func serveLocal(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestGatewayAnswersStatelessRoutesLocally: the gateway answers the
// catalog, the experiment list and validation itself, byte-identical to
// a replica up to each response's own trace ID, without a replica
// attempt and without the proxy headers.
func TestGatewayAnswersStatelessRoutesLocally(t *testing.T) {
	g, _, servers := newServeFleet(t, 2, nil)
	invalid := `{"id":"val-bad","axis":{"n2":[16]},"cases":[{"label":"X","value_key":"v","stack":[{"name":"NOPE"}]}]}`
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
	}{
		{"catalog", http.MethodGet, "/v1/catalog", "", http.StatusOK},
		{"experiments", http.MethodGet, "/v1/experiments", "", http.StatusOK},
		{"validate", http.MethodPost, "/v1/validate", specWithID("val-ok", 16), http.StatusOK},
		{"validate-domain", http.MethodPost, "/v1/validate", invalid, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw := serveLocal(g.Handler(), tc.method, tc.path, tc.body)
			rep := serveLocal(servers[0].Handler(), tc.method, tc.path, tc.body)
			if gw.Code != tc.status || rep.Code != tc.status {
				t.Fatalf("status gateway %d, replica %d, want %d: %s", gw.Code, rep.Code, tc.status, gw.Body)
			}
			// Error bodies name the answering tier's own trace.
			norm := func(w *httptest.ResponseRecorder) string {
				return strings.ReplaceAll(w.Body.String(), w.Header().Get(serve.TraceHeader), "TRACE")
			}
			if norm(gw) != norm(rep) {
				t.Errorf("gateway body differs from the replica's:\n%s\n%s", gw.Body, rep.Body)
			}
			for _, h := range []string{ReplicaHeader, AttemptsHeader} {
				if v := gw.Header().Get(h); v != "" {
					t.Errorf("%s = %q on a locally answered route", h, v)
				}
			}
		})
	}
	var vr serve.ValidateResponse
	good := specWithID("val-ok", 16)
	w := postGateway(t, g, "/v1/validate", good)
	if err := json.Unmarshal(w.Body.Bytes(), &vr); err != nil || !vr.Valid || vr.ID != "val-ok" || vr.Fingerprint != fingerprintOf(t, good) {
		t.Errorf("validate = %+v (err %v)", vr, err)
	}
	var ge errBody
	w = postGateway(t, g, "/v1/validate", invalid)
	if err := json.Unmarshal(w.Body.Bytes(), &ge); err != nil || ge.Kind != serve.KindDomain {
		t.Errorf("invalid validate kind = %q (err %v), want %q: %s", ge.Kind, err, serve.KindDomain, w.Body)
	}
	for _, rep := range g.replicas {
		if hits := rep.hits.Load(); hits != 0 {
			t.Errorf("replica %s saw %d proxy attempts for locally answered routes", rep.base, hits)
		}
	}
}

func TestCachePartitioningAcrossReplicas(t *testing.T) {
	g, _, servers := newServeFleet(t, 3, nil)
	const specs = 30
	for i := 0; i < specs; i++ {
		body := specWithID(fmt.Sprintf("part-%02d", i), float64(16+i))
		w := postGateway(t, g, "/v1/eval", body)
		if w.Code != http.StatusOK {
			t.Fatalf("spec %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	// Each replica's response cache must hold a non-empty, pairwise
	// disjoint shard of the fingerprint space, summing to every spec —
	// the consistent-hash partition in the flesh.
	seen := map[string]int{}
	total := 0
	for ri, s := range servers {
		info := s.CacheInfo(specs * 2)
		if info.ResponseCache.Entries == 0 {
			t.Errorf("replica %d holds no cache entries (keyspace not spread)", ri)
		}
		total += info.ResponseCache.Entries
		for _, ent := range info.ResponseCache.Top {
			if prev, dup := seen[ent.Fingerprint]; dup {
				t.Errorf("fingerprint %s cached on both replica %d and %d", ent.Fingerprint, prev, ri)
			}
			seen[ent.Fingerprint] = ri
		}
	}
	if total != specs {
		t.Errorf("fleet-wide cache entries = %d, want %d (each spec cached exactly once)", total, specs)
	}
	if len(seen) != specs {
		t.Errorf("distinct cached fingerprints = %d, want %d", len(seen), specs)
	}
}

// newServeFleet builds a gateway over n REAL serve-tier servers sharing
// one obs registry, for tests that need end-to-end semantics.
func newServeFleet(t *testing.T, n int, override func(*Config)) (*Gateway, []*httptest.Server, []*serve.Server) {
	t.Helper()
	prev := obs.Default()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })
	servers := make([]*serve.Server, n)
	fronts := make([]*httptest.Server, n)
	bases := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = serve.NewServer(serve.Config{})
		fronts[i] = httptest.NewServer(servers[i].Handler())
		t.Cleanup(fronts[i].Close)
		bases[i] = fronts[i].URL
	}
	cfg := Config{
		Replicas:      bases,
		Timeout:       10 * time.Second,
		RetryBase:     time.Millisecond,
		HedgeQuantile: -1,
	}
	if override != nil {
		override(&cfg)
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, fronts, servers
}

func TestGatewayDrainFlipsReadiness(t *testing.T) {
	g, _ := newTestGateway(t, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	addrc := make(chan string, 1)
	go func() {
		done <- g.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrc <- a.String() })
	}()
	base := "http://" + <-addrc
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live healthz = %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drained gateway returned %v, want nil", err)
	}
	if !g.Draining() {
		t.Error("draining = false after shutdown")
	}
}

// TestCacheDeletePurgesStaleReserve pins the invalidation contract: the
// DELETE /v1/cache fan-out must drop the gateway's own stale-response
// reserve along with the replicas' caches. Before the fix, a total-ring
// failure right after an operator purge served the just-invalidated
// bodies from the reserve.
func TestCacheDeletePurgesStaleReserve(t *testing.T) {
	g, stubs := newTestGateway(t, 2, nil)
	body := specWithID("purge-stale", 16)
	for _, s := range stubs {
		s.cacheHit.Store(true)
	}

	// Warm the stale reserve with a healthy answer; relayed as a replica
	// cache hit, it also admits the body to the key memo.
	if w := postGateway(t, g, "/v1/eval", body); w.Code != http.StatusOK {
		t.Fatalf("warmup status %d", w.Code)
	}
	if staleLen(g) != 1 || g.memo.Info().Entries != 1 {
		t.Fatalf("stale reserve = %d entries, key memo = %d; want 1 each", staleLen(g), g.memo.Info().Entries)
	}

	// Operator invalidation: the fan-out must purge the reserve too and
	// report how much it dropped.
	req := httptest.NewRequest(http.MethodDelete, "/v1/cache", nil)
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("purge status %d: %s", w.Code, w.Body)
	}
	if staleLen(g) != 0 || g.memo.Info().Entries != 0 {
		t.Fatalf("stale reserve = %d entries, key memo = %d after DELETE /v1/cache; want 0 each", staleLen(g), g.memo.Info().Entries)
	}
	var fan CacheFanout
	if err := json.Unmarshal(w.Body.Bytes(), &fan); err != nil {
		t.Fatalf("decoding fan-out body: %v", err)
	}
	if fan.StalePurged == nil || *fan.StalePurged != 1 {
		t.Errorf("stale_purged = %v, want 1", fan.StalePurged)
	}
	if fan.KeyMemoPurged == nil || *fan.KeyMemoPurged != 1 {
		t.Errorf("key_memo_purged = %v, want 1", fan.KeyMemoPurged)
	}

	// Total ring failure after the purge: the invalidated body must NOT
	// come back; a reserve miss degrades to 503.
	for _, s := range stubs {
		s.ts.Close()
	}
	if w := postGateway(t, g, "/v1/eval", body); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-purge degraded status %d, want 503 (stale reserve must not serve invalidated results): %s", w.Code, w.Body)
	}
}

// TestOptimizeThroughGateway proves the inverse-query route end to end
// over real serve replicas: the query is rendezvous-routed on its
// optimize fingerprint, the first pass is a cache miss on exactly one
// replica, and the repeat lands on the same replica as a relayed
// cache hit with the identical body.
func TestOptimizeThroughGateway(t *testing.T) {
	g, _, _ := newServeFleet(t, 3, nil)
	body := `{
	  "id": "fleet-opt", "n2": 32, "budget": {"envelope": 1},
	  "catalog": [
	    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
	    {"name": "DRAM", "params": {"density": 8}, "cost": 4}
	  ]
	}`

	w1 := postGateway(t, g, "/v1/optimize", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("first optimize status %d: %s", w1.Code, w1.Body)
	}
	if got := w1.Header().Get("X-Bandwall-Cache"); got != "miss" {
		t.Errorf("first optimize cache disposition = %q, want miss", got)
	}
	rep1 := w1.Header().Get(ReplicaHeader)
	if rep1 == "" {
		t.Fatal("first optimize response has no replica header")
	}

	w2 := postGateway(t, g, "/v1/optimize", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("second optimize status %d: %s", w2.Code, w2.Body)
	}
	if got := w2.Header().Get(ReplicaHeader); got != rep1 {
		t.Errorf("repeat routed to %s, want the fingerprint's replica %s", got, rep1)
	}
	if got := w2.Header().Get("X-Bandwall-Cache"); got != "hit" {
		t.Errorf("second optimize cache disposition = %q, want hit", got)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Error("cached optimize response differs from the original")
	}

	var or serve.OptimizeResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &or); err != nil {
		t.Fatalf("optimize response is not JSON: %v\n%s", err, w2.Body)
	}
	if or.ID != "fleet-opt" || len(or.Frontier) == 0 || or.Best.Cores <= 0 {
		t.Errorf("unexpected optimize answer: id=%q frontier=%d best=%d cores", or.ID, len(or.Frontier), or.Best.Cores)
	}
}

// TestGatewayKeyMemo: the gateway admits a body to its key memo only
// when the owning replica relays a 200 answered from its response cache,
// then routes the body from the memo to the same replica with the same
// answer. A domain-invalid body is never retained, and neither is one
// whose answers were never relayed as cache hits.
func TestGatewayKeyMemo(t *testing.T) {
	g, _, servers := newServeFleet(t, 3, nil)
	reg := obs.Default()
	body := specWithID("memo", 24)
	var first *httptest.ResponseRecorder
	for i, want := range []struct {
		cache         string
		entries       int
		hits, misses  uint64
		replicaMemoed int
	}{{"miss", 0, 0, 1, 0}, {"hit", 1, 0, 2, 1}, {"hit", 1, 1, 2, 1}} {
		w := postGateway(t, g, "/v1/eval", body)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
		if i == 0 {
			first = w
		}
		if got := w.Header().Get(serve.CacheHeader); got != want.cache {
			t.Errorf("request %d: %s = %q, want %q", i, serve.CacheHeader, got, want.cache)
		}
		if w.Header().Get(ReplicaHeader) != first.Header().Get(ReplicaHeader) || w.Body.String() != first.Body.String() {
			t.Errorf("request %d: answered by %s with a different body; want %s's answer", i, w.Header().Get(ReplicaHeader), first.Header().Get(ReplicaHeader))
		}
		if got := g.memo.Info().Entries; got != want.entries {
			t.Errorf("request %d: gateway memo entries = %d, want %d", i, got, want.entries)
		}
		if h, m := reg.Counter(MetricMemoHits).Value(), reg.Counter(MetricMemoMisses).Value(); h != want.hits || m != want.misses {
			t.Errorf("request %d: %s/%s = %d/%d, want %d/%d", i, MetricMemoHits, MetricMemoMisses, h, m, want.hits, want.misses)
		}
		memoed := 0
		for _, s := range servers {
			memoed += s.CacheInfo(0).KeyMemo.Entries
		}
		if memoed != want.replicaMemoed {
			t.Errorf("request %d: replica memo entries = %d, want %d", i, memoed, want.replicaMemoed)
		}
	}
	invalid := `{"id":"dom","axis":{"n2":[16]},"cases":[{"label":"X","value_key":"v","stack":[{"name":"NOPE"}]}]}`
	for i := 0; i < 3; i++ {
		if w := postGateway(t, g, "/v1/eval", invalid); w.Code != http.StatusBadRequest {
			t.Fatalf("invalid body: status %d, want 400", w.Code)
		}
	}
	if got := g.memo.Info().Entries; got != 1 {
		t.Errorf("gateway memo entries = %d after invalid bodies, want 1", got)
	}
	if h, m := reg.Counter(MetricMemoHits).Value(), reg.Counter(MetricMemoMisses).Value(); h != 1 || m != 5 {
		t.Errorf("%s/%s = %d/%d after three invalid bodies, want 1/5 (each was looked up and parsed)", MetricMemoHits, MetricMemoMisses, h, m)
	}

	// Replicas that never report a cache hit never get a body admitted.
	gs, _ := newTestGateway(t, 2, nil)
	for i := 0; i < 3; i++ {
		if w := postGateway(t, gs, "/v1/eval", body); w.Code != http.StatusOK {
			t.Fatalf("stub request %d: status %d", i, w.Code)
		}
	}
	if got := gs.memo.Info(); got.Entries != 0 || got.Misses != 3 {
		t.Errorf("gateway memo over cache-less stubs = %+v, want 0 entries and 3 misses", got)
	}
}

// TestGatewayStageMetricsNDJSON: the gateway's /metrics speaks NDJSON,
// names the fleet tier, and carries fleet.requests and the eval route's
// fleet.stage_us series, one per gateway stage.
func TestGatewayStageMetricsNDJSON(t *testing.T) {
	g, _, _ := newServeFleet(t, 2, nil)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	if w := postGateway(t, g, "/v1/eval", specWithID("ndjson", 16)); w.Code != http.StatusOK {
		t.Fatalf("eval status %d: %s", w.Code, w.Body)
	}
	snap, err := serve.ScrapeMetrics(context.Background(), nil, gw.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tier != "fleet" {
		t.Errorf("tier = %q, want fleet", snap.Tier)
	}
	if _, ok := snap.Counters["fleet.requests"]; !ok || snap.Requests() == 0 {
		t.Errorf("fleet.requests = %d (present %v), want > 0", snap.Requests(), ok)
	}
	stages := snap.StageHistograms("eval")
	for _, stage := range gatewayStages {
		if h, ok := snap.Histograms["fleet.stage_us.eval."+stage]; !ok || h.Count != 1 || stages[stage].Count != 1 {
			t.Errorf("fleet.stage_us.eval.%s: present %v, count %d, want 1 observation", stage, ok, h.Count)
		}
	}
}

// TestGatewayTraceResolvesWithStages: a gateway eval's X-Bandwall-Trace
// resolves at the gateway's own /v1/trace, with top-level parse,
// fingerprint, forward and write spans in start order and not
// overlapping, and with attributes naming the replica, the attempt
// count, the key-memo disposition and the replica's own trace, which
// resolves at that replica.
func TestGatewayTraceResolvesWithStages(t *testing.T) {
	g, fronts, servers := newServeFleet(t, 3, nil)
	w := postGateway(t, g, "/v1/eval", specWithID("traced", 16))
	if w.Code != http.StatusOK {
		t.Fatalf("eval status %d: %s", w.Code, w.Body)
	}
	id := w.Header().Get(serve.TraceHeader)
	var list serve.TraceList
	tw := serveLocal(g.Handler(), http.MethodGet, "/v1/trace?id="+id, "")
	if err := json.Unmarshal(tw.Body.Bytes(), &list); err != nil || list.Count != 1 {
		t.Fatalf("gateway /v1/trace?id=%s: status %d, count %d, err %v: %s", id, tw.Code, list.Count, err, tw.Body)
	}
	tr := list.Traces[0]
	var names []string
	end := 0.0
	for _, sp := range tr.Spans {
		if sp.Parent != 0 {
			continue
		}
		names = append(names, sp.Name)
		if sp.StartUS+1e-3 < end {
			t.Errorf("span %s starts at %.3fµs, before the previous stage ended at %.3fµs", sp.Name, sp.StartUS, end)
		}
		end = sp.StartUS + sp.WallUS
	}
	want := []string{serve.StageParse, serve.StageFingerprint, serve.StageForward, serve.StageWrite}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("top-level spans = %v, want %v", names, want)
	}
	if got := tr.Attrs["replica"]; got != w.Header().Get(ReplicaHeader) || got == "" {
		t.Errorf("replica attr = %q, want the %s header %q", got, ReplicaHeader, w.Header().Get(ReplicaHeader))
	}
	if got := tr.Attrs["attempts"]; got != w.Header().Get(AttemptsHeader) || got != "1" {
		t.Errorf("attempts attr = %q, header %q, want 1", got, w.Header().Get(AttemptsHeader))
	}
	if got := tr.Attrs["memo"]; got != "miss" {
		t.Errorf("memo attr = %q, want miss", got)
	}
	rt := tr.Attrs["replica_trace"]
	if rt == "" || rt == id {
		t.Fatalf("replica_trace attr = %q, want the replica's own trace (gateway trace %s)", rt, id)
	}
	for i, f := range fronts {
		if f.URL != tr.Attrs["replica"] {
			continue
		}
		rw := serveLocal(servers[i].Handler(), http.MethodGet, "/v1/trace?id="+rt, "")
		var rl serve.TraceList
		if err := json.Unmarshal(rw.Body.Bytes(), &rl); err != nil || rl.Count != 1 || rl.Traces[0].Route != "eval" {
			t.Errorf("replica /v1/trace?id=%s: count %d, err %v: %s", rt, rl.Count, err, rw.Body)
		}
		return
	}
	t.Errorf("replica attr %q names no replica", tr.Attrs["replica"])
}

// TestGatewayErrorsCarryTrace: the errors the gateway writes itself —
// 400 domain, 504 budget expiry and 503 total ring failure — name the
// gateway's trace in their body, as its X-Bandwall-Trace header does,
// and the 503 carries Retry-After.
func TestGatewayErrorsCarryTrace(t *testing.T) {
	g, stubs := newTestGateway(t, 2, func(c *Config) { c.Timeout = 80 * time.Millisecond })
	check := func(name string, w *httptest.ResponseRecorder, status int, kind string) {
		t.Helper()
		var ge errBody
		if err := json.Unmarshal(w.Body.Bytes(), &ge); err != nil || w.Code != status || ge.Kind != kind {
			t.Fatalf("%s: status %d kind %q (err %v), want %d %q: %s", name, w.Code, ge.Kind, err, status, kind, w.Body)
		}
		if id := w.Header().Get(serve.TraceHeader); ge.Trace == "" || ge.Trace != id {
			t.Errorf("%s: body trace %q, header trace %q; want equal and non-empty", name, ge.Trace, id)
		}
	}
	check("domain", postGateway(t, g, "/v1/eval", `{"id":"dom","axis":{"n2":[16]},"cases":[{"stack":[{"name":"NOPE"}]}]}`),
		http.StatusBadRequest, serve.KindDomain)
	for _, s := range stubs {
		s.mode.Store(stubHang)
	}
	check("budget", postGateway(t, g, "/v1/eval", specWithID("trace-504", 16)), http.StatusGatewayTimeout, serve.KindCanceled)
	for _, s := range stubs {
		s.ts.Close()
	}
	w := postGateway(t, g, "/v1/eval", specWithID("trace-503", 16))
	check("unavailable", w, http.StatusServiceUnavailable, serve.KindUnavailable)
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestGatewayAccessLogTrace: the gateway logs one line per request with
// serve's fields plus its own attributes.
func TestGatewayAccessLogTrace(t *testing.T) {
	var log strings.Builder
	g, _ := newTestGateway(t, 2, func(c *Config) { c.AccessLog = &log })
	w := postGateway(t, g, "/v1/eval", specWithID("logged", 16))
	if w.Code != http.StatusOK {
		t.Fatalf("eval status %d: %s", w.Code, w.Body)
	}
	line := log.String()
	for _, want := range []string{
		"msg=request", "route=eval", "status=200",
		"trace=" + w.Header().Get(serve.TraceHeader),
		"memo=miss",
		"replica=" + w.Header().Get(ReplicaHeader),
		"attempts=1",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q:\n%s", want, line)
		}
	}
	if n := strings.Count(line, "\n"); n != 1 {
		t.Errorf("access log has %d lines for one request, want 1:\n%s", n, line)
	}
}

// TestLoadgenThroughGatewayReadsFleetStages: loadgen against a gateway
// that shares its registry with its replicas reports the gateway's
// stages, not the replicas'.
func TestLoadgenThroughGatewayReadsFleetStages(t *testing.T) {
	g, _, _ := newServeFleet(t, 2, nil)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	res, err := serve.Loadgen(context.Background(), serve.LoadgenConfig{
		URL: gw.URL, Body: []byte(specWithID("loadgen", 16)),
		Conns: 2, Duration: 200 * time.Millisecond, WarmupRequests: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("loadgen: %d requests, %d errors", res.Requests, res.Errors)
	}
	for _, stage := range []string{serve.StageTotal, serve.StageForward, serve.StageWrite} {
		if res.Stages[stage].Count == 0 {
			t.Errorf("stage %s missing from the gateway breakdown: %v", stage, res.Stages)
		}
	}
	if _, ok := res.Stages[serve.StageCacheLookup]; ok {
		t.Errorf("gateway breakdown carries the replicas' %s stage: %v", serve.StageCacheLookup, res.Stages)
	}
}
