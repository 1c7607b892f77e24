package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
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
