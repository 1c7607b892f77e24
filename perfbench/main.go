// Command perfbench is the repository benchmark. It runs one named
// workload against the bandwidth-wall model from a single process, checks
// every answer, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics, as a JSON object on its last line of output.
//
// Workloads:
//
//	serve-hot   /v1/eval bodies from a warmed, cache-resident pool
//	serve-cold  never-seen eval and optimize bodies (one in five optimize);
//	            BENCHMARK.json leaves it out, its figures drift with the host
//	fleet-hot   the serve-hot pool through a gateway in front of two replicas
//	reproduce   quick fig01 then quick fig14 through exp.RunOne
//
// The servers run in this process on loopback listeners, set up the way
// `bandwall serve -quiet` and `bandwall gateway` set themselves up. Load is
// closed loop on GOMAXPROCS connections. Each round starts a fresh stack and
// sends a fixed request list; rounds repeat until --seconds have passed.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 18 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// layerMetric is one per-layer metric. layers.json also records, for each,
// what measures it and which end-to-end metric it should move.
type layerMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	On     []string `json:"on"` // the workloads it should move
}

//go:embed layers.json
var layersJSON []byte

var layerMetrics = func() []layerMetric {
	var ms []layerMetric
	if err := json.Unmarshal(layersJSON, &ms); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	return ms
}()

// endToEnd are the bounded end-to-end metrics, with their units. They are
// taken on the process's CPU clock, which the kernel does not charge with
// hypervisor steal: on a shared host wall-clock figures move with the
// neighbours, so they are reported beside these, unbounded.
var endToEnd = []struct{ name, unit string }{
	{"cpu_ms_per_op", "ms"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-hot, serve-cold, fleet-hot or reproduce")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 18, "measured time, in whole rounds")
	traced := fs.Int("trace", 0, "1: the traced run, printing per-layer metrics")
	examples := fs.String("examples", "examples/scenarios", "directory of the shipped eval examples")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		conns:    runtime.GOMAXPROCS(0),
		examples: *examples,
	}
	host, err := json.Marshal(readHost())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s\n", host)
	cpu0, err := readCPUTimes()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	ctx := context.Background()
	t := newTally()
	var metrics map[string]metricValue
	if *traced == 1 {
		tr := &tracer{epoch: time.Now()}
		values, err := tracedRun(ctx, cfg, tr, t)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		metrics = map[string]metricValue{}
		for _, m := range layerMetrics {
			metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
	} else {
		if t, err = runWorkload(ctx, cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		metrics = t.endToEnd()
	}
	cpu1, err := readCPUTimes()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	t.report(stdout, cfg, stealShare(cpu0, cpu1), metrics)
	res := result{
		Correct:   t.failed == 0 && len(t.guards) == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd computes the end-to-end metrics of an untraced run: the
// median over rounds of each round's CPU time per operation and of its
// set-up CPU time and of its peak RSS, and the success share.
func (t *tally) endToEnd() map[string]metricValue {
	perOp := make([]float64, len(t.roundCPU))
	for i, c := range t.roundCPU {
		perOp[i] = c * 1e3 / float64(max(t.roundOps[i], 1))
	}
	v := map[string]float64{
		"cpu_ms_per_op": median(perOp),
		"success_ratio": float64(t.ok()) / float64(max(t.attempted, 1)),
		"setup_s":       median(t.setupCPU),
		"peak_rss_mb":   median(t.roundRSS),
	}
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		out[m.name] = metricValue{v[m.name], m.unit}
	}
	return out
}

// report prints the run's counts, findings and metrics, one per line.
func (t *tally) report(w io.Writer, cfg config, steal float64, metrics map[string]metricValue) {
	fmt.Fprintf(w, "workload: %s seed %d rounds %d conns %d\n", cfg.workload, cfg.seed, len(t.roundWall), cfg.conns)
	fmt.Fprintf(w, "steal_share: %.4f\n", steal)
	fmt.Fprintf(w, "operations: sent %d succeeded %d failed %d\n", t.attempted, t.ok(), t.failed)
	if n := len(t.roundOps); n > 0 {
		per := t.roundOps[n-1]
		fmt.Fprintf(w, "wall clock (unbounded): throughput_rps %.5g 1/s, latency_p50_ms %.4g ms, latency_p99_ms %.4g ms, wall_s %.4g s, setup %.4g s; medians over %d rounds\n",
			median(t.roundRate), median(t.roundP50), median(t.roundP99), median(t.roundWall), median(t.setups), n)
		fmt.Fprintf(w, "latency samples: %d per round, %d beyond each round's p99\n", per, per-int(0.99*float64(per)))
		fmt.Fprintf(w, "per-round wall s %.4g\nper-round cpu s %.4g\nper-round setup cpu s %.4g\nper-round peak rss MB %.4g\n",
			t.roundWall, t.roundCPU, t.setupCPU, t.roundRSS)
	}
	if len(t.cache) > 0 {
		fmt.Fprintf(w, "cache dispositions: %v, hit share %.4f\n", t.cache, float64(t.cache["hit"])/float64(max(t.attempted, 1)))
	}
	if len(t.roundSkew) > 0 {
		fmt.Fprintf(w, "gateway: attempts %d, hedges %d, replica skew %.4g (median over rounds)\n", t.attempts, t.hedges, median(t.roundSkew))
	}
	for _, s := range t.notes {
		fmt.Fprintf(w, "note: %s\n", s)
	}
	for _, s := range t.errs {
		fmt.Fprintf(w, "failure: %s\n", s)
	}
	for _, s := range t.guards {
		fmt.Fprintf(w, "guard violated: %s\n", s)
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s: %.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}
