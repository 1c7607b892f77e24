package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stackedSpec mirrors examples/scenarios/stacked-compression.json's
// headline case: CC 2x + LC 2x on the 32-CEA chip is Fig 12's 18 cores.
const stackedSpec = `{
  "id": "stacked",
  "axis": {"n2": [32]},
  "cases": [
    {"label": "BASE", "value_key": "cores@base"},
    {"label": "CC 2x + LC 2x",
     "stack": [{"name": "CC", "params": {"ratio": 2}},
               {"name": "LC", "params": {"ratio": 2}}],
     "value_key": "cores@cc+lc"}
  ]
}`

// specWithID builds a trivially distinct one-case spec, for tests that
// must avoid response-cache and singleflight collisions.
func specWithID(id string, n2 float64) string {
	return fmt.Sprintf(`{"id":%q,"axis":{"n2":[%g]},"cases":[{"label":"BASE","value_key":"cores"}]}`, id, n2)
}

// optimizeWithID builds a small distinct optimize query: one catalog
// entry on the 32-CEA chip.
func optimizeWithID(id string) string {
	return fmt.Sprintf(`{"id":%q,"n2":32,"budget":{"envelope":1},`+
		`"catalog":[{"name":"LC","params":{"ratio":2},"cost":1}]}`, id)
}

// queryKind is one query route of the pipeline, for the tests that must
// hold for every kind: its path, a factory of distinct bodies, a fixed
// body for the collapse and cache-hit tests, and its key function.
type queryKind struct {
	name, path string
	withID     func(id string) string
	body       string
	key        func([]byte) (string, error)
}

var queryKinds = []queryKind{
	{"eval", "/v1/eval", func(id string) string { return specWithID(id, 32) }, stackedSpec, keyOf(evalQuery)},
	{"optimize", "/v1/optimize", optimizeWithID, optimizeSpecBody, keyOf(optimizeQuery)},
}

// keyOf is q's key function, built as the pipeline builds it: parse,
// then fingerprint.
func keyOf[T, R any](q query[T, R]) func([]byte) (string, error) {
	return func(body []byte) (string, error) {
		spec, err := q.parse(body)
		if err != nil {
			return "", err
		}
		return q.fingerprint(spec)
	}
}

// mustKey is k's fingerprint of body.
func (k queryKind) mustKey(t *testing.T, body string) string {
	t.Helper()
	key, err := k.key([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// newTestServer installs a fresh obs registry, builds a Server (with an
// optional leader gate, which must be set before any request arrives),
// and starts an httptest front end.
func newTestServer(t *testing.T, cfg Config, gate func(ctx context.Context, key string)) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	prev := obs.Default()
	reg := obs.NewRegistry()
	RegisterObs(reg)
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })
	s := NewServer(cfg)
	s.leaderGate = gate
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func postEval(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	return post(t, base+"/v1/eval", body)
}

// post sends body to url and returns the response with its body read.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeError(t *testing.T, data []byte) httpError {
	t.Helper()
	var he httpError
	if err := json.Unmarshal(data, &he); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, data)
	}
	return he
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Errorf("healthz = %d %s", resp.StatusCode, data)
	}
}

func TestEvalHappyPath(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, nil)
	resp, data := postEval(t, ts.URL, stackedSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Bandwall-Cache"); got != "miss" {
		t.Errorf("first request cache disposition = %q, want miss", got)
	}
	var er EvalResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, data)
	}
	if er.Values["cores@cc+lc"] != 18 || er.Values["cores@base"] != 11 {
		t.Errorf("values = %v, want cores@cc+lc=18 cores@base=11", er.Values)
	}
	if len(er.Points) != 2 {
		t.Errorf("points = %d, want 2", len(er.Points))
	}
	if !strings.Contains(er.Report, "CC 2x + LC 2x") {
		t.Errorf("report missing case label:\n%s", er.Report)
	}
	if s.Solves() != 1 {
		t.Errorf("solves = %d, want 1", s.Solves())
	}

	// The identical spec again — and a reformatted spelling of it — must
	// both come from the response cache without another solve.
	resp2, _ := postEval(t, ts.URL, stackedSpec)
	if got := resp2.Header.Get("X-Bandwall-Cache"); got != "hit" {
		t.Errorf("repeat request cache disposition = %q, want hit", got)
	}
	reformatted := strings.ReplaceAll(stackedSpec, "\n", " ")
	resp3, _ := postEval(t, ts.URL, reformatted)
	if got := resp3.Header.Get("X-Bandwall-Cache"); got != "hit" {
		t.Errorf("reformatted spec cache disposition = %q, want hit (fingerprint should normalize)", got)
	}
	if s.Solves() != 1 {
		t.Errorf("solves after cached repeats = %d, want 1", s.Solves())
	}
}

func TestEvalMalformedSpec(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	cases := []struct {
		name, body, wantKind string
	}{
		{"invalid json", `{"id":`, KindDomain},
		{"unknown field", `{"id":"x","axes":{"n2":[32]},"cases":[{}]}`, KindDomain},
		{"no axis", `{"id":"x","cases":[{}]}`, KindDomain},
		{"unknown technique", `{"id":"x","axis":{"n2":[32]},"cases":[{"stack":[{"name":"Nope"}]}]}`, KindDomain},
		{"bad param", `{"id":"x","axis":{"n2":[32]},"cases":[{"stack":[{"name":"CC","params":{"ratio":0.5}}]}]}`, KindDomain},
		{"trailing brace", `{"id":"x","axis":{"n2":[32]},"cases":[{}]}}`, KindDomain},
	}
	for _, tc := range cases {
		resp, data := postEval(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
			continue
		}
		if he := decodeError(t, data); he.Kind != tc.wantKind || he.Error == "" {
			t.Errorf("%s: error body = %+v, want kind %q", tc.name, he, tc.wantKind)
		}
	}
}

func TestEvalDeadline(t *testing.T) {
	// The gate holds the solve until the per-request deadline fires, so
	// the handler must answer 504 with the canceled kind — for every kind.
	for _, k := range queryKinds {
		t.Run(k.name, func(t *testing.T) {
			gate := func(ctx context.Context, _ string) { <-ctx.Done() }
			s, ts, _ := newTestServer(t, Config{EvalTimeout: 30 * time.Millisecond}, gate)
			resp, data := post(t, ts.URL+k.path, k.withID("deadline"))
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, data)
			}
			if he := decodeError(t, data); he.Kind != KindCanceled {
				t.Errorf("kind = %q, want %q", he.Kind, KindCanceled)
			}
			if s.Solves() != 0 {
				t.Errorf("solves = %d, want 0", s.Solves())
			}
		})
	}
}

func TestEvalTimeoutQueryParam(t *testing.T) {
	gate := func(ctx context.Context, _ string) { <-ctx.Done() }
	_, ts, _ := newTestServer(t, Config{EvalTimeout: time.Minute}, gate)
	// A request may lower the server deadline…
	resp, err := http.Post(ts.URL+"/v1/eval?timeout=20ms", "application/json",
		strings.NewReader(specWithID("qp", 32)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
	// …and a bad duration is rejected before any work happens.
	resp2, err := http.Post(ts.URL+"/v1/eval?timeout=banana", "application/json",
		strings.NewReader(specWithID("qp2", 32)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d, want 400", resp2.StatusCode)
	}
	if he := decodeError(t, data); he.Kind != KindBadRequest {
		t.Errorf("bad timeout kind = %q, want %q", he.Kind, KindBadRequest)
	}
}

// TestEvalSaturation: with the single admission slot held by a solve,
// the next request of either kind sheds with 429 + Retry-After, and
// works once the slot frees.
func TestEvalSaturation(t *testing.T) {
	for _, k := range queryKinds {
		t.Run(k.name, func(t *testing.T) {
			release := make(chan struct{})
			blocker := k.withID("blocker")
			blockerKey := k.mustKey(t, blocker)
			gate := func(ctx context.Context, key string) {
				if key == blockerKey {
					<-release
				}
			}
			s, ts, reg := newTestServer(t, Config{MaxInflight: 1}, gate)

			errc := make(chan error, 1)
			go func() {
				resp, err := http.Post(ts.URL+k.path, "application/json", strings.NewReader(blocker))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("blocker status %d", resp.StatusCode)
					}
				}
				errc <- err
			}()
			waitFor(t, "blocker admitted", func() bool { return s.inflight.Load() == 1 })

			// The single admission slot is held: the next request must shed.
			resp, data := post(t, ts.URL+k.path, k.withID("shed"))
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, data)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 missing Retry-After header")
			}
			if he := decodeError(t, data); he.Kind != KindSaturated {
				t.Errorf("kind = %q, want %q", he.Kind, KindSaturated)
			}
			if reg.Counter(MetricSaturated).Value() != 1 {
				t.Errorf("saturated counter = %d, want 1", reg.Counter(MetricSaturated).Value())
			}

			// Releasing the blocker frees the slot; the same shed request now works.
			close(release)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			resp2, data2 := post(t, ts.URL+k.path, k.withID("shed"))
			if resp2.StatusCode != http.StatusOK {
				t.Errorf("after release: status %d (%s)", resp2.StatusCode, data2)
			}
		})
	}
}

// TestEvalSingleflight is the -race collapse proof, for every kind: N
// concurrent identical queries produce exactly one underlying solve,
// with the other N-1 requests served as singleflight waiters, and every
// one of them gets the leader's bytes.
func TestEvalSingleflight(t *testing.T) {
	const n = 8
	for _, k := range queryKinds {
		t.Run(k.name, func(t *testing.T) {
			release := make(chan struct{})
			gate := func(ctx context.Context, _ string) { <-release }
			s, ts, reg := newTestServer(t, Config{MaxInflight: 2 * n}, gate)

			var wg sync.WaitGroup
			errs := make([]error, n)
			bodies := make([][]byte, n)
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+k.path, "application/json", strings.NewReader(k.body))
					if err != nil {
						errs[i] = err
						return
					}
					bodies[i], _ = io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
					}
				}(i)
			}
			// Hold the leader until every other request is blocked on its flight,
			// so the collapse is deterministic rather than timing-dependent.
			waitFor(t, "waiters assembled", func() bool { return waiters(s) == n-1 })
			close(release)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("request %d: %v", i, err)
				}
			}
			if s.Solves() != 1 {
				t.Errorf("solves = %d, want exactly 1 for %d concurrent identical requests", s.Solves(), n)
			}
			if s.SharedFlights() != n-1 {
				t.Errorf("shared flights = %d, want %d", s.SharedFlights(), n-1)
			}
			if got := reg.Counter(MetricSingleflightShared).Value(); got != n-1 {
				t.Errorf("obs shared counter = %d, want %d", got, n-1)
			}
			// A follow-up request is a plain response-cache hit with the same bytes.
			resp, data := post(t, ts.URL+k.path, k.body)
			if got := resp.Header.Get(CacheHeader); got != "hit" {
				t.Errorf("follow-up disposition = %q, want hit", got)
			}
			for i, b := range bodies {
				if !bytes.Equal(b, data) {
					t.Errorf("request %d body differs from the cached answer", i)
				}
			}
			if s.Solves() != 1 {
				t.Errorf("solves after follow-up = %d, want 1", s.Solves())
			}
		})
	}
}

// TestOversizedBody: a body one byte over the limit is refused with 400
// "bad_request" on every query route and on /v1/validate, before any
// solve.
func TestOversizedBody(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, nil)
	big := strings.Repeat(" ", maxSpecBytes+1)
	for _, path := range []string{"/v1/eval", "/v1/optimize", "/v1/validate"} {
		resp, data := post(t, ts.URL+path, big)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", path, resp.StatusCode, data)
			continue
		}
		if he := decodeError(t, data); he.Kind != KindBadRequest || he.Error != "spec exceeds 1048576 bytes" {
			t.Errorf("%s: error body = %+v, want bad_request \"spec exceeds 1048576 bytes\"", path, he)
		}
	}
	if s.Solves() != 0 {
		t.Errorf("solves = %d, want 0", s.Solves())
	}
}

func TestExperimentsList(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) < 20 {
		t.Fatalf("experiment list has %d entries, want the full registry", len(list))
	}
	found := false
	for _, e := range list {
		if e.ID == "fig02" && e.Title != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("fig02 missing from %v", list)
	}
}

func TestExperimentRun(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, err := http.Post(ts.URL+"/v1/experiments/fig02/run?quick=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res struct {
		ID     string             `json:"id"`
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig02" || res.Values["cores@B=1"] != 11 {
		t.Errorf("result = %+v, want fig02 with cores@B=1 = 11", res)
	}
}

func TestExperimentRunUnknown(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, err := http.Post(ts.URL+"/v1/experiments/nope/run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if he := decodeError(t, data); he.Kind != KindNotFound {
		t.Errorf("kind = %q, want %q", he.Kind, KindNotFound)
	}
}

func TestCatalog(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []CatalogEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	byName := map[string]CatalogEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	cc, ok := byName["CC"]
	if !ok {
		t.Fatalf("catalog missing CC (have %d entries)", len(entries))
	}
	if cc.Key != "ratio" || cc.Doc == "" {
		t.Errorf("CC entry = %+v", cc)
	}
	if got := cc.Defaults["realistic"]["ratio"]; got != 2.0 {
		t.Errorf("CC realistic ratio = %g, want 2 (Table 2)", got)
	}
	if _, ok := byName["CC/LC"]; !ok {
		t.Error("catalog missing the CC/LC dual technique")
	}
}

func TestMetricsTextAndNDJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	// Generate a little traffic first.
	postEval(t, ts.URL, stackedSpec)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"bandwall_serve_requests ",
		"bandwall_serve_eval_solves 1",
		"bandwall_serve_latency_us_count",
		"bandwall_serve_latency_us_bucket{le=\"+Inf\"}",
		"bandwall_scaling_cache_",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text metrics missing %q:\n%.800s", want, text)
		}
	}

	resp2, err := http.Get(ts.URL + "/metrics?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	nd, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	sawServe := false
	for _, line := range strings.Split(strings.TrimSpace(string(nd)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("NDJSON line %q: %v", line, err)
		}
		if name, _ := m["name"].(string); strings.HasPrefix(name, "serve.") {
			sawServe = true
		}
	}
	if !sawServe {
		t.Error("NDJSON metrics contain no serve.* instruments")
	}

	resp3, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp3.StatusCode)
	}
}

// TestGracefulDrain pins the shutdown contract: canceling the serve
// context stops the listener but lets the in-flight evaluation finish
// before Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	prev := obs.Default()
	reg := obs.NewRegistry()
	RegisterObs(reg)
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })

	release := make(chan struct{})
	s := NewServer(Config{DrainTimeout: 5 * time.Second})
	s.leaderGate = func(ctx context.Context, _ string) { <-release }

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	base := "http://" + l.Addr().String()

	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/eval", "application/json",
			strings.NewReader(specWithID("draining", 32)))
		if err != nil {
			resc <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resc <- result{status: resp.StatusCode}
	}()
	waitFor(t, "request admitted", func() bool { return s.inflight.Load() == 1 })

	cancel()
	select {
	case err := <-done:
		t.Fatalf("Serve returned %v while a request was in flight", err)
	case <-time.After(150 * time.Millisecond):
		// Still draining, as it should be.
	}

	close(release)
	r := <-resc
	if r.err != nil || r.status != http.StatusOK {
		t.Errorf("in-flight request after shutdown = %+v, want 200", r)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain completed")
	}
}

func TestClassify(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	// Unknown routes fall through to the mux's default 404.
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", resp.StatusCode)
	}
	// Method mismatch on a registered pattern is 405 from the mux.
	resp2, err := http.Get(ts.URL + "/v1/eval")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval: status %d, want 405", resp2.StatusCode)
	}
}

// waiters is how many requests have joined another request's flight
// over s's lifetime; every test that waits on it uses a fresh server.
func waiters(s *Server) uint64 { return s.flight.Shared() }

// waitFor polls cond for up to 5s, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
