package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestUsageMentionsServe pins the unified usage text: both serving
// subcommands and the shared-suite-flags note must be present. usage()
// writes to stderr, so this goes through the subprocess hook.
func TestUsageMentionsServe(t *testing.T) {
	cmd, stderr := cliCommand("help", "")
	if err := cmd.Run(); err != nil {
		t.Fatalf("help exited nonzero: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{
		"serve     HTTP evaluation service",
		"loadgen   drive a running server",
		"shared suite flags (run, eval):",
		"-checkpoint",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("usage missing %q:\n%s", want, stderr.String())
		}
	}
}

func TestServeUsageErrors(t *testing.T) {
	if _, err := runCapture(t, "serve", "-bogus"); err == nil {
		t.Error("serve accepted an unknown flag")
	}
	if _, err := runCapture(t, "serve", "extra"); err == nil {
		t.Error("serve accepted a positional argument")
	}
	if _, err := runCapture(t, "loadgen", "-bogus"); err == nil {
		t.Error("loadgen accepted an unknown flag")
	}
	if _, err := runCapture(t, "loadgen", "extra"); err == nil {
		t.Error("loadgen accepted a positional argument")
	}
}

func TestLoadgenDeadServer(t *testing.T) {
	// Nothing listens here: every warmup request fails.
	if _, err := runCapture(t, "loadgen", "-url", "http://127.0.0.1:1", "-c", "1", "-d", "100ms"); err == nil {
		t.Error("loadgen against a dead server succeeded")
	}
}

// freePort reserves an ephemeral port and releases it for the child
// process to bind.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestServeLifecycle is the end-to-end serving scenario as a real
// process: start `bandwall serve`, wait for /healthz, evaluate the
// shipped stacked-compression spec over HTTP (expecting Fig 12's 18
// cores), drive it with `bandwall loadgen`, then SIGTERM it and
// require a graceful exit 0.
func TestServeLifecycle(t *testing.T) {
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd, stderr := cliCommand(fmt.Sprintf("serve -addr 127.0.0.1:%d -quiet", port), "")
	var stdout strings.Builder
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the listener.
	var up bool
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				up = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !up {
		t.Fatalf("server never became healthy (stderr: %s)", stderr.String())
	}

	// One real eval over the wire.
	spec, err := os.ReadFile(exampleSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/eval", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"cores@cc+lc":18`) {
		t.Errorf("eval response missing the Fig 12 answer:\n%.400s", body)
	}
	traceID := resp.Header.Get("X-Bandwall-Trace")
	if traceID == "" {
		t.Error("eval response missing the X-Bandwall-Trace header")
	}

	// The trace is retrievable with a span tree.
	tresp, err := http.Get(base + "/v1/trace?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK || !strings.Contains(string(tbody), `"singleflight"`) {
		t.Errorf("GET /v1/trace?id=%s: status %d, body %.400s", traceID, tresp.StatusCode, tbody)
	}

	// Drive it with loadgen at two concurrencies. The measured window is
	// all response-cache hits (warmup populated the cache), so the hot
	// path's stages must appear in the server-side breakdown.
	for _, conns := range []string{"4", "8"} {
		out, err := runCapture(t, "loadgen", "-url", base,
			"-spec", exampleSpecs[0], "-c", conns, "-d", "300ms")
		if err != nil {
			t.Fatalf("loadgen -c %s failed: %v\n%s", conns, err, out)
		}
		if !regexp.MustCompile(`(?m)^requests +: [1-9][0-9]* \(0 errors\)$`).MatchString(out) {
			t.Errorf("loadgen -c %s: want a nonzero request count and 0 errors:\n%s", conns, out)
		}
		if !strings.Contains(out, "throughput") || !strings.Contains(out, "latency p99") {
			t.Errorf("loadgen output missing summary:\n%s", out)
		}
		if !strings.Contains(out, "server stages over the measured window") {
			t.Errorf("loadgen output missing the stage breakdown:\n%s", out)
		}
		for _, stage := range []string{"total", "parse", "cache.lookup", "write"} {
			if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(stage) + ` +n=[1-9]`).MatchString(out) {
				t.Errorf("loadgen -c %s stages missing %s:\n%s", conns, stage, out)
			}
		}
	}

	// One frame of the live dashboard against the warm server.
	out, err := runCapture(t, "top", "-url", base, "-n", "1", "-plain")
	if err != nil {
		t.Fatalf("top failed: %v\n%s", err, out)
	}
	for _, want := range []string{"bandwall top", "stage latency (eval", "slowest recent traces", "goroutines"} {
		if !strings.Contains(out, want) {
			t.Errorf("top frame missing %q:\n%s", want, out)
		}
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server did not exit after SIGTERM")
	}
	code := 0
	if exitErr, ok := waitErr.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if waitErr != nil {
		t.Fatal(waitErr)
	}
	if code != 0 {
		t.Errorf("SIGTERM exit code %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "drained and stopped") {
		t.Errorf("missing drain confirmation on stdout:\n%s", stdout.String())
	}
}

// TestTopAgainstGateway renders one dashboard frame against an
// in-process gateway that shares its registry with its replica: the
// gateway's own requests, eval stages and traces.
func TestTopAgainstGateway(t *testing.T) {
	prev := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(prev) })
	rep := httptest.NewServer(serve.NewServer(serve.Config{}).Handler())
	defer rep.Close()
	g, err := fleet.NewGateway(fleet.Config{Replicas: []string{rep.URL}, HedgeQuantile: -1})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	spec, err := os.ReadFile(exampleSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gw.URL+"/v1/eval", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway eval status %d", resp.StatusCode)
	}

	out, err := runCapture(t, "top", "-url", gw.URL, "-n", "1", "-plain")
	if err != nil {
		t.Fatalf("top against the gateway failed: %v\n%s", err, out)
	}
	for _, want := range []string{"(fleet tier)", "stage latency (eval", "slowest recent traces"} {
		if !strings.Contains(out, want) {
			t.Errorf("top frame missing %q:\n%s", want, out)
		}
	}
	for _, re := range []string{`requests [1-9]`, `(?m)^  forward +1 `, `(?m)^  [0-9a-f]{16} +eval +200 `} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("top frame does not match %s:\n%s", re, out)
		}
	}
	if strings.Contains(out, "cache.lookup") {
		t.Errorf("top frame mixes in the replica's stages:\n%s", out)
	}
}

// TestTopFrameShowsOnlyCarriedSeries: a frame prints the inflight, cache
// and runtime parts only when the snapshot carries their series. A
// gateway's snapshot has none of them, and a replica's frame is as
// before.
func TestTopFrameShowsOnlyCarriedSeries(t *testing.T) {
	frame := func(snap serve.MetricsSnapshot) string {
		var b strings.Builder
		renderTopFrame(&b, "http://x", "eval", snap, serve.MetricsSnapshot{}, 0, false, nil, nil)
		_, body, _ := strings.Cut(b.String(), "\n") // drop the clock line
		return body
	}
	fleetSnap := serve.MetricsSnapshot{Tier: "fleet", Counters: map[string]uint64{"fleet.requests": 5}}
	if got, want := frame(fleetSnap), "\nrequests 5\n\ntraces: none recorded yet\n"; got != want {
		t.Errorf("gateway frame:\n%q\nwant\n%q", got, want)
	}
	replica := serve.MetricsSnapshot{
		Tier: "serve",
		Counters: map[string]uint64{
			serve.MetricRequests: 12, serve.MetricSaturated: 1, serve.MetricCacheHits: 9,
			serve.MetricCacheMisses: 3, serve.MetricEvalSolves: 3, serve.MetricSingleflightShared: 2,
		},
		Gauges: map[string]float64{
			serve.MetricInflight: 4, serve.MetricGoroutines: 17, serve.MetricHeapBytes: 3 << 20,
			serve.MetricGCCycles: 5, serve.MetricGCPauseMS: 1.5,
		},
	}
	want := "\nrequests 12  inflight 4  saturated 1\n" +
		"cache hits 9 / misses 3 (75.0%)  solves 3  shared flights 2\n" +
		"goroutines 17  heap 3.0 MiB  gc cycles 5  gc pause 1.5 ms total\n\n" +
		"traces: none recorded yet\n"
	if got := frame(replica); got != want {
		t.Errorf("replica frame:\n%q\nwant\n%q", got, want)
	}
}
