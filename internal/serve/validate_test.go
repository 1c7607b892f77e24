package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func postValidate(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	return post(t, base+"/v1/validate", body)
}

func TestValidateHappyPath(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, nil)
	resp, data := postValidate(t, ts.URL, stackedSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr ValidateResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, data)
	}
	if !vr.Valid || vr.ID != "stacked" || vr.Cases != 2 {
		t.Errorf("validate = %+v, want valid id=stacked cases=2", vr)
	}
	if vr.Fingerprint == "" {
		t.Error("validate response missing fingerprint")
	}
	if s.Solves() != 0 {
		t.Errorf("solves after validate = %d, want 0 (validation must not evaluate)", s.Solves())
	}

	// The fingerprint must be the same canonical key /v1/eval caches on:
	// an eval of the same spec lands exactly one response-cache entry at
	// that fingerprint.
	if resp, data := postEval(t, ts.URL, stackedSpec); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status %d: %s", resp.StatusCode, data)
	}
	info := s.CacheInfo(10)
	// Introspection abbreviates fingerprints for display; match by prefix.
	if len(info.ResponseCache.Top) != 1 ||
		!strings.HasPrefix(vr.Fingerprint, info.ResponseCache.Top[0].Fingerprint) {
		t.Errorf("response cache top = %+v, want single entry at validate fingerprint %s",
			info.ResponseCache.Top, vr.Fingerprint)
	}
}

func TestValidateDomainError(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, nil)
	resp, data := postValidate(t, ts.URL,
		`{"id":"x","axis":{"n2":[32]},"cases":[{"stack":[{"name":"Nope"}]}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	if he := decodeError(t, data); he.Kind != KindDomain || he.Error == "" {
		t.Errorf("error body = %+v, want kind %q", he, KindDomain)
	}
	if s.Solves() != 0 {
		t.Errorf("solves = %d, want 0", s.Solves())
	}
}

func TestValidateNoAdmissionSlot(t *testing.T) {
	// With MaxInflight 1 and a request parked in the solver, /v1/eval
	// sheds (429) but /v1/validate still answers: validation bypasses
	// admission entirely.
	release := make(chan struct{})
	gate := func(ctx context.Context, _ string) { <-release }
	s, ts, _ := newTestServer(t, Config{MaxInflight: 1}, gate)
	defer close(release)

	go func() {
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json",
			strings.NewReader(specWithID("hold", 32)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "blocker admitted", func() bool { return s.inflight.Load() == 1 })

	resp, data := postValidate(t, ts.URL, stackedSpec)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("validate while saturated = %d, want 200: %s", resp.StatusCode, data)
	}
}

// TestHealthzDrainReadiness proves the drain sequencing a fleet gateway
// depends on: the moment graceful shutdown begins — while accepted work
// is still in flight — /healthz flips to 503 "draining" with a
// Retry-After hint, so health checkers stop routing here before the
// listener ever closes.
func TestHealthzDrainReadiness(t *testing.T) {
	prev := obs.Default()
	reg := obs.NewRegistry()
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

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", resp.StatusCode)
	}
	if s.draining.Load() {
		t.Fatal("draining set before shutdown")
	}

	// Park a request in the solver so the drain stays open, then begin
	// graceful shutdown: readiness must drop while that work completes.
	go func() {
		resp, err := http.Post(base+"/v1/eval", "application/json",
			strings.NewReader(specWithID("drain-ready", 32)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "request admitted", func() bool { return s.inflight.Load() == 1 })
	cancel()
	waitFor(t, "draining flag flipped", s.draining.Load)

	// Shutdown closes the listener at once (fresh dials are refused —
	// already out of rotation), so probe the handler directly: existing
	// keep-alive checkers see this 503 while the drain completes.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("draining healthz missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("draining healthz body = %s", rec.Body)
	}

	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain completed")
	}
}
