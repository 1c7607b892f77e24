package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), args, &buf)
	return buf.String(), err
}

func TestNoSubcommand(t *testing.T) {
	if _, err := runCapture(t); err == nil {
		t.Error("missing subcommand accepted")
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if _, err := runCapture(t, "bogus"); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestHelp(t *testing.T) {
	if _, err := runCapture(t, "help"); err != nil {
		t.Errorf("help errored: %v", err)
	}
}

func TestList(t *testing.T) {
	out, err := runCapture(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig01", "fig16", "table2", "ext-hetero", "abl-model"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
	// Each row carries the registry title and the paper-result description.
	for _, want := range []string{
		"title", "paper result",
		"Memory traffic vs core count in the next technology generation",
		"traffic grows super-linearly",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%.600s", want, out)
		}
	}
}

func TestCores(t *testing.T) {
	out, err := runCapture(t, "cores", "-n2", "256", "-tech", "CC/LC=2 + DRAM=8 + 3D + SmCl=0.4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cores         : 183") {
		t.Errorf("cores output wrong:\n%s", out)
	}
	if !strings.Contains(out, "71.8%") {
		t.Errorf("area output wrong:\n%s", out)
	}
}

func TestCoresBadTech(t *testing.T) {
	if _, err := runCapture(t, "cores", "-tech", "Nope=1"); err == nil {
		t.Error("bad technique spec accepted")
	}
}

func TestCoresBadAlpha(t *testing.T) {
	if _, err := runCapture(t, "cores", "-alpha", "-1"); err == nil {
		t.Error("bad alpha accepted")
	}
}

func TestTraffic(t *testing.T) {
	// The §4.2 worked example: 12 cores, 4 cache CEAs ⇒ 2.6x traffic.
	out, err := runCapture(t, "traffic", "-p2", "12", "-c2", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2.5981") {
		t.Errorf("traffic output wrong:\n%s", out)
	}
}

func TestSweep(t *testing.T) {
	out, err := runCapture(t, "sweep", "-tech", "DRAM=8")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "16x (256 CEAs)") || !strings.Contains(out, "47") {
		t.Errorf("sweep output wrong:\n%s", out)
	}
}

func TestRunExperimentAndCSV(t *testing.T) {
	dir := t.TempDir()
	out, err := runCapture(t, "run", "-quick", "-csv", dir, "fig02")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cores@B=1") {
		t.Errorf("run output wrong:\n%s", out)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig02_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "cores,") {
		t.Errorf("csv content wrong: %s", csv)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := runCapture(t, "run", "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunNoArgs(t *testing.T) {
	if _, err := runCapture(t, "run"); err == nil {
		t.Error("run without ids accepted")
	}
}

func TestTraceLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bwt")
	out, err := runCapture(t, "trace", "gen", "-out", path, "-n", "50000", "-alpha", "0.5", "-footprint", "65536")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote 50000 accesses") {
		t.Errorf("gen output wrong:\n%s", out)
	}
	out, err = runCapture(t, "trace", "stats", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "accesses") || !strings.Contains(out, "50000") {
		t.Errorf("stats output wrong:\n%s", out)
	}
	out, err = runCapture(t, "trace", "sim", "-size", "262144", "-warmup", "10000", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "miss rate") {
		t.Errorf("sim output wrong:\n%s", out)
	}
	out, err = runCapture(t, "trace", "sim", "-size", "262144", "-sweep", "-warmup", "10000", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fitted α") {
		t.Errorf("sweep output wrong:\n%s", out)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := runCapture(t, "trace"); err == nil {
		t.Error("bare trace accepted")
	}
	if _, err := runCapture(t, "trace", "bogus"); err == nil {
		t.Error("unknown trace subcommand accepted")
	}
	if _, err := runCapture(t, "trace", "gen"); err == nil {
		t.Error("gen without -out accepted")
	}
	if _, err := runCapture(t, "trace", "stats"); err == nil {
		t.Error("stats without file accepted")
	}
	if _, err := runCapture(t, "trace", "stats", "/nonexistent/file"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := runCapture(t, "trace", "sim", "/nonexistent/file"); err == nil {
		t.Error("sim on missing file accepted")
	}
}

func TestRunJSON(t *testing.T) {
	out, err := runCapture(t, "run", "-quick", "-json", "fig02")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"id": "fig02"`) || !strings.Contains(out, `"cores@B=1": 11`) {
		t.Errorf("json output wrong:\n%s", out)
	}
}

func TestReport(t *testing.T) {
	out, err := runCapture(t, "report", "-quick", "-jobs", "8")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Bandwidth-wall reproduction report",
		"## fig16 —",
		"| combination |",
		"## abl-eq5 —",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestSelftest(t *testing.T) {
	out, err := runCapture(t, "selftest")
	if err != nil {
		t.Fatalf("selftest failed:\n%s\n%v", out, err)
	}
	if !strings.Contains(out, "all 29 checks pass") {
		t.Errorf("selftest output:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("selftest reported failures:\n%s", out)
	}
}

// exampleSpecs are the shipped scenario specs, relative to this package.
var exampleSpecs = []string{
	"../../examples/scenarios/stacked-compression.json",
	"../../examples/scenarios/custom-envelope.json",
	"../../examples/scenarios/generation-sweep.json",
	"../../examples/scenarios/multiwall-sweep.json",
}

// TestEvalExamples covers the acceptance criterion: the shipped example
// specs evaluate cleanly in one batch and reproduce the paper's core
// counts (stacked CC 2x + LC 2x on 32 CEAs is Fig 12's 18 cores) plus the
// multi-wall flip scenario's pinned values.
func TestEvalExamples(t *testing.T) {
	out, err := runCapture(t, append([]string{"eval", "-json"}, exampleSpecs...)...)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		ID     string             `json:"id"`
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("eval -json output: %v\n%s", err, out)
	}
	if len(results) != 4 {
		t.Fatalf("eval returned %d results, want 4:\n%s", len(results), out)
	}
	values := map[string]map[string]float64{}
	for _, r := range results {
		values[r.ID] = r.Values
	}
	for _, tc := range []struct {
		id, key string
		want    float64
	}{
		{"stacked-compression", "cores@base", 11},
		{"stacked-compression", "cores@cc+lc", 18},
		{"custom-envelope", "cores@1x", 11},
		{"custom-envelope", "cores@1.5x", 13},
		{"generation-sweep", "BASE@16x", 24},
		{"generation-sweep", "DRAM@16x", 47},
		{"generation-sweep", "combined@16x", 183},
		{"multiwall-sweep", "dram3d@4x", 36},
		{"multiwall-sweep", "dram3d@8x", 44},
		{"multiwall-sweep", "ccdram3d@16x", 43},
	} {
		if got := values[tc.id][tc.key]; got != tc.want {
			t.Errorf("%s %s = %g, want %g", tc.id, tc.key, got, tc.want)
		}
	}
}

// TestEvalTextReport asserts the default text output renders a table per
// spec, like `run` does for registry experiments.
func TestEvalTextReport(t *testing.T) {
	out, err := runCapture(t, "eval", exampleSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Stacked cache + link compression",
		"CC 2x + LC 2x",
		"cores@cc+lc",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("eval text output missing %q:\n%s", want, out)
		}
	}
}

// TestEvalSuiteFlags verifies eval rides the same suite runner as run:
// -metrics writes the NDJSON dump, whose one trace line is the spec's run
// trace, with the engine's span nested under the experiment's, and
// -checkpoint/-resume skip clean specs.
func TestEvalSuiteFlags(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.ndjson")
	ckpt := filepath.Join(dir, "ck.ndjson")
	if _, err := runCapture(t, "eval", "-metrics", metrics, "-checkpoint", ckpt, exampleSpecs[1]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	type traceLine struct {
		Kind, Name, Status string
		WallNS             int64   `json:"wall_ns"`
		AllocBytes         *uint64 `json:"alloc_bytes"`
		Spans              []struct {
			ID, Parent int
			Name       string
		}
	}
	var traces []traceLine
	for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var tl traceLine
		if err := json.Unmarshal([]byte(ln), &tl); err != nil {
			t.Fatalf("metrics line %q: %v", ln, err)
		}
		if tl.Kind == "trace" {
			traces = append(traces, tl)
		}
	}
	if len(traces) != 1 {
		t.Fatalf("metrics dump has %d trace lines, want 1: %+v", len(traces), traces)
	}
	tl := traces[0]
	if tl.Name != "exp.custom-envelope" || tl.Status != "ok" || tl.WallNS <= 0 || tl.AllocBytes == nil {
		t.Errorf("trace line = %+v, want exp.custom-envelope, ok, wall_ns > 0 and alloc_bytes", tl)
	}
	parent := map[string]int{}
	ids := map[string]int{}
	for _, sp := range tl.Spans {
		parent[sp.Name], ids[sp.Name] = sp.Parent, sp.ID
	}
	if id, ok := ids["exp.custom-envelope"]; !ok || parent["exp.custom-envelope"] != 0 || parent["scenario.eval"] != id {
		t.Errorf("trace spans = %+v, want scenario.eval under a top-level exp.custom-envelope", tl.Spans)
	}
	out, err := runCapture(t, "eval", "-checkpoint", ckpt, "-resume", exampleSpecs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "custom-envelope: skipped") {
		t.Errorf("resume did not skip the clean spec:\n%s", out)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := runCapture(t, "eval"); err == nil {
		t.Error("eval without specs accepted")
	}
	if _, err := runCapture(t, "eval", "/nonexistent/spec.json"); err == nil {
		t.Error("missing spec file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"id":"bad","axis":{},"cases":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCapture(t, "eval", bad); err == nil {
		t.Error("invalid spec accepted")
	}
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"id":"t","axes":{"n2":[32]},"cases":[{}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCapture(t, "eval", typo); err == nil {
		t.Error("unknown spec field accepted")
	}
	if _, err := runCapture(t, "eval", exampleSpecs[0], exampleSpecs[0]); err == nil {
		t.Error("duplicate spec ids accepted")
	}
}

// TestSelftestSpecFiles covers the CI spec-sanity hook: selftest with spec
// paths validates them and counts them as checks; a broken spec fails.
func TestSelftestSpecFiles(t *testing.T) {
	// The optimize example rides along: spec sanity falls back to the
	// OptimizeSpec parser, so CI can glob all of examples/scenarios.
	specs := append(append([]string{}, exampleSpecs...),
		"../../examples/scenarios/optimize-area-budget.json")
	out, err := runCapture(t, append([]string{"selftest"}, specs...)...)
	if err != nil {
		t.Fatalf("selftest with specs failed:\n%s\n%v", out, err)
	}
	if !strings.Contains(out, "all 34 checks pass") {
		t.Errorf("selftest spec output:\n%s", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"id":"","cases":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCapture(t, "selftest", bad)
	if err == nil {
		t.Errorf("selftest accepted a broken spec:\n%s", out)
	}
}

func TestFitSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "curve.csv")
	// An exact α = 0.5 curve.
	csv := "size,miss\n"
	for c := 32768; c <= 4194304; c *= 2 {
		m := 0.2 * math.Sqrt(32768.0/float64(c))
		csv += fmt.Sprintf("%d,%.6f\n", c, m)
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "fit", "-ci", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fitted α      : 0.5000") {
		t.Errorf("fit output wrong:\n%s", out)
	}
	if !strings.Contains(out, "24 cores") {
		t.Errorf("projection missing:\n%s", out)
	}
	if !strings.Contains(out, "90% CI") {
		t.Errorf("CI missing:\n%s", out)
	}
}

// beMain re-executes the test binary as the real CLI when the
// BANDWALL_BE_MAIN hook is set — the only way to observe real process
// exit codes and signal handling.
func beMain() {
	if os.Getenv("BANDWALL_BE_MAIN") != "1" {
		return
	}
	os.Args = append([]string{"bandwall"}, strings.Split(os.Getenv("BANDWALL_ARGS"), " ")...)
	if os.Getenv("BANDWALL_ARGS") == "" {
		os.Args = []string{"bandwall"}
	}
	main()
	os.Exit(0)
}

func TestMain(m *testing.M) {
	beMain()
	os.Exit(m.Run())
}

// cliCommand builds a subprocess invocation of the CLI through the
// BANDWALL_BE_MAIN hook.
func cliCommand(args, faults string) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(), "BANDWALL_BE_MAIN=1", "BANDWALL_ARGS="+args, "BANDWALL_FAULTS="+faults)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// TestExitCodes asserts the documented exit-code contract — 0 success,
// 1 experiment failure, 2 usage error — and that a bad invocation
// produces exactly ONE error message on stderr (the regression guarded
// against is usage() and main() both reporting).
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args     string
		faults   string
		wantCode int
		wantMsg  string // must appear exactly once on stderr (when set)
	}{
		{"bogus", "", 2, "unknown subcommand"},
		{"", "", 2, "missing subcommand"},
		{"run", "", 2, "need experiment ids"},
		{"run nope", "", 2, "unknown experiment"},
		{"run -resume fig02", "", 2, "-resume requires -checkpoint"},
		{"help", "", 0, ""},
		{"run -quick fig02", "", 0, ""},
		// A contained panic inside one experiment is an ordinary failure.
		{"run -quick -retries 0 fig02", "exp.run@fig02=panic", 1, "exp fig02"},
		// A bad fault plan itself is a usage error.
		{"run -quick fig02", "exp.run=explode", 2, "unknown action"},
	}
	for _, tc := range cases {
		cmd, stderr := cliCommand(tc.args, tc.faults)
		err := cmd.Run()
		code := 0
		if exitErr, ok := err.(*exec.ExitError); ok {
			code = exitErr.ExitCode()
		} else if err != nil {
			t.Fatalf("args %q: %v", tc.args, err)
		}
		if code != tc.wantCode {
			t.Errorf("args %q (faults %q): exit code %d, want %d (stderr: %s)",
				tc.args, tc.faults, code, tc.wantCode, stderr.String())
		}
		if tc.wantMsg != "" {
			if n := strings.Count(stderr.String(), tc.wantMsg); n != 1 {
				t.Errorf("args %q: %q appears %d times on stderr, want exactly 1:\n%s",
					tc.args, tc.wantMsg, n, stderr.String())
			}
		}
	}
}

// TestSigintExitCode covers the acceptance scenario: SIGINT during a run
// exits 130, terminates promptly (the 2-second flush budget), and the
// checkpoint file still records both the completed and the interrupted
// experiments.
func TestSigintExitCode(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.ndjson")
	// fig02 completes instantly (model-exact); fig15 blocks on an
	// injected 30s sleep at its exp.run injection point until the signal
	// cancels the run context.
	cmd, stderr := cliCommand(
		"run -quick -jobs 2 -checkpoint "+ckpt+" fig02 fig15",
		"exp.run@fig15=sleep:30s x*")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the run time to start fig15's sleep and finish fig02.
	time.Sleep(700 * time.Millisecond)
	sigAt := time.Now()
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		t.Fatal("process did not exit after SIGINT")
	}
	if wall := time.Since(sigAt); wall > 2*time.Second {
		t.Errorf("exit took %v after SIGINT, want under 2s", wall)
	}
	code := 0
	if exitErr, ok := waitErr.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if waitErr != nil {
		t.Fatal(waitErr)
	}
	if code != 130 {
		t.Errorf("exit code %d, want 130 (stderr: %s)", code, stderr.String())
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not flushed: %v", err)
	}
	status := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e struct{ ID, Status string }
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("checkpoint line %q: %v", line, err)
		}
		status[e.ID] = e.Status
	}
	if status["fig02"] != "ok" {
		t.Errorf("fig02 checkpoint status = %q, want ok (entries: %v)", status["fig02"], status)
	}
	if status["fig15"] != "canceled" {
		t.Errorf("fig15 checkpoint status = %q, want canceled (entries: %v)", status["fig15"], status)
	}
}

// TestRunMetricsRobustCounters asserts the robustness counters surface in
// the -metrics NDJSON dump: an injected transient fault must show up as a
// recorded injection and a retry.
func TestRunMetricsRobustCounters(t *testing.T) {
	t.Setenv("BANDWALL_FAULTS", "exp.run@fig02=noconverge")
	path := filepath.Join(t.TempDir(), "m.ndjson")
	if _, err := runCapture(t, "run", "-quick", "-retries", "2", "-metrics", path, "fig02"); err != nil {
		t.Fatalf("transient fault not recovered by retry: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if m["kind"] == "counter" {
			name, _ := m["name"].(string)
			v, _ := m["value"].(float64)
			counters[name] = v
		}
	}
	for _, name := range []string{"robust.retries", "robust.recovered_panics", "robust.canceled",
		"robust.checkpoint.skips", "robust.faults.injected", "robust.degradations"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("metrics dump missing counter %q", name)
		}
	}
	if counters["robust.faults.injected"] < 1 {
		t.Errorf("robust.faults.injected = %v, want ≥ 1", counters["robust.faults.injected"])
	}
	if counters["robust.retries"] < 1 {
		t.Errorf("robust.retries = %v, want ≥ 1", counters["robust.retries"])
	}
}

// TestRunResumeSkips runs one experiment to a checkpoint, then reruns
// with -resume and asserts the second run skips it.
func TestRunResumeSkips(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.ndjson")
	if _, err := runCapture(t, "run", "-quick", "-checkpoint", ckpt, "fig02"); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "run", "-quick", "-checkpoint", ckpt, "-resume", "fig02")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig02: skipped") {
		t.Errorf("resume did not skip the clean experiment:\n%s", out)
	}
	// A different input hash (quick off → on) must re-execute.
	out, err = runCapture(t, "run", "-checkpoint", ckpt, "-resume", "fig02")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "skipped") {
		t.Errorf("resume skipped despite changed options:\n%s", out)
	}
}

// TestRunMetricsNDJSON covers the acceptance path: run -metrics FILE
// must write parseable NDJSON holding one run trace per experiment and
// the cachesim counters.
func TestRunMetricsNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ndjson")
	if _, err := runCapture(t, "run", "-quick", "-metrics", path, "fig02", "fig15"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]float64{}
	var cachesimCounters int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
		kind, _ := m["kind"].(string)
		name, _ := m["name"].(string)
		switch {
		case kind == "trace":
			wall, ok := m["wall_ns"].(float64)
			if !ok || wall <= 0 {
				t.Errorf("trace %s has no positive wall_ns: %v", name, m["wall_ns"])
			}
			traces[name] = wall
		case kind == "counter" && strings.HasPrefix(name, "cachesim."):
			cachesimCounters++
		}
	}
	for _, want := range []string{"exp.fig02", "exp.fig15"} {
		if _, ok := traces[want]; !ok {
			t.Errorf("NDJSON missing trace %q (have %v)", want, traces)
		}
	}
	if cachesimCounters == 0 {
		t.Error("NDJSON contains no cachesim counters")
	}
}

// TestRunMetricsCountsSimWork asserts a simulation-backed experiment
// drives the cachesim counters to nonzero values in the dump.
func TestRunMetricsCountsSimWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ndjson")
	if _, err := runCapture(t, "run", "-quick", "-metrics", path, "writeback"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var accesses float64
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		if m["kind"] == "counter" && m["name"] == "cachesim.accesses" {
			accesses, _ = m["value"].(float64)
		}
	}
	if accesses == 0 {
		t.Error("cachesim.accesses is 0 after a simulation-backed experiment")
	}
}

func TestRunTimings(t *testing.T) {
	out, err := runCapture(t, "run", "-quick", "-timings", "fig02")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Per-experiment timings") || !strings.Contains(out, "fig02") {
		t.Errorf("timings table missing:\n%s", out)
	}
	if !strings.Contains(out, "TOTAL") {
		t.Errorf("timings total missing:\n%s", out)
	}
}

func TestCoresVerbose(t *testing.T) {
	out, err := runCapture(t, "cores", "-n2", "256", "-verbose")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "numeric.brent.iterations") {
		t.Errorf("verbose output missing solver stats:\n%s", out)
	}
	if !strings.Contains(out, "calls") {
		t.Errorf("verbose output missing call counts:\n%s", out)
	}
	// Non-verbose output must stay clean.
	out, err = runCapture(t, "cores", "-n2", "256")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "solver obs") {
		t.Errorf("solver stats leaked without -verbose:\n%s", out)
	}
}

// TestCoresSolvesOnce: cores reads its whole and exact counts off one
// root solve.
func TestCoresSolvesOnce(t *testing.T) {
	out, err := runCapture(t, "cores", "-n2", "256", "-tech", "DRAM=8", "-verbose")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cores         : 47 (exact 47.442)") {
		t.Errorf("cores output changed:\n%s", out)
	}
	if !regexp.MustCompile(`numeric\.brent\.iterations +1 calls,`).MatchString(out) {
		t.Errorf("want one Brent solve:\n%s", out)
	}
}

func TestSweepVerbose(t *testing.T) {
	out, err := runCapture(t, "sweep", "-tech", "DRAM=8", "-verbose")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "numeric.brent.iterations") {
		t.Errorf("verbose output missing solver stats:\n%s", out)
	}
}

// TestRunProfiles smoke-tests the pprof/trace hooks: files must exist
// and be non-empty after a profiled run.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	trc := filepath.Join(dir, "trace.out")
	args := []string{"run", "-quick", "-cpuprofile", cpu, "-memprofile", mem, "-trace", trc, "fig02"}
	if _, err := runCapture(t, args...); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, trc} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestReportHasTimings(t *testing.T) {
	out, err := runCapture(t, "report", "-quick", "-jobs", "8")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "## Timings") {
		t.Errorf("report missing timings section:\n%.400s", out)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := runCapture(t, "fit"); err == nil {
		t.Error("no file accepted")
	}
	if _, err := runCapture(t, "fit", "/nonexistent.csv"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("size,miss\n100,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCapture(t, "fit", bad); err == nil {
		t.Error("miss rate > 1 accepted")
	}
	headerOnly := filepath.Join(dir, "h.csv")
	if err := os.WriteFile(headerOnly, []byte("size,miss\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCapture(t, "fit", headerOnly); err == nil {
		t.Error("header-only file accepted")
	}
}

// TestOptimizeSigintExitCode pins cancellation for the inverse optimizer:
// SIGINT during a search whose solves are blocked by an injected sleep
// must tear the worker pool down promptly and exit 130.
func TestOptimizeSigintExitCode(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "opt.json")
	body := `{
	  "id": "sigint-opt", "n2": 32, "budget": {"envelope": 1},
	  "catalog": [
	    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
	    {"name": "DRAM", "params": {"density": 8}, "cost": 4}
	  ]
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	// Every wall solve blocks on a 30s injected sleep until the signal
	// cancels the search context.
	cmd, stderr := cliCommand("optimize "+spec, "scaling.solve=sleep:30s x*")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond)
	sigAt := time.Now()
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		t.Fatal("optimize did not exit after SIGINT")
	}
	if wall := time.Since(sigAt); wall > 2*time.Second {
		t.Errorf("exit took %v after SIGINT, want under 2s", wall)
	}
	code := 0
	if exitErr, ok := waitErr.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if waitErr != nil {
		t.Fatal(waitErr)
	}
	if code != 130 {
		t.Errorf("exit code %d, want 130 (stderr: %s)", code, stderr.String())
	}
}
