package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/exp"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/render"
	"repro/internal/robust"
)

// enableObs installs a fresh metrics registry as the process default and
// pre-registers every instrumented subsystem's metric names, so dumps
// have a stable shape even when a run never touches a subsystem (the
// model-exact figures construct no caches). The returned restore func
// reinstalls whatever registry was active before.
func enableObs() (*obs.Registry, func()) {
	prev := obs.Default()
	reg := obs.NewRegistry()
	cachesim.RegisterObs(reg)
	perfsim.RegisterObs(reg)
	numeric.RegisterObs(reg)
	robust.RegisterObs(reg)
	obs.SetDefault(reg)
	return reg, func() { obs.SetDefault(prev) }
}

// writeMetricsFile dumps one NDJSON trace line per experiment run
// (skipped experiments have none), then the registry, to path.
func writeMetricsFile(path string, outcomes []exp.Outcome, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, oc := range outcomes {
		if oc.Trace != nil && err == nil {
			err = obs.WriteTraceNDJSON(f, oc.Trace, oc.Status)
		}
	}
	if err == nil {
		err = reg.WriteNDJSON(f)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("metrics: writing %s: %w", path, err)
	}
	return f.Close()
}

// timingTable renders the experiments' run traces, slowest first.
func timingTable(outcomes []exp.Outcome) *render.Table {
	var runs []*obs.TraceRecord
	for _, oc := range outcomes {
		if oc.Trace != nil {
			runs = append(runs, oc.Trace)
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Wall > runs[j].Wall })
	tb := &render.Table{
		Title:   "Per-experiment timings (wall-clock; allocations are process-wide over the run)",
		Headers: []string{"experiment", "wall ms", "alloc MB"},
	}
	var totalNS int64
	for _, rec := range runs {
		totalNS += rec.WallNS
		tb.AddRow(strings.TrimPrefix(rec.Route, "exp."),
			fmt.Sprintf("%.2f", float64(rec.WallNS)/1e6),
			fmt.Sprintf("%.2f", float64(rec.AllocBytes)/(1<<20)))
	}
	tb.AddRow("TOTAL", fmt.Sprintf("%.2f", float64(totalNS)/1e6), "")
	return tb
}

// printSolverObs prints the numeric solvers' convergence metrics in the
// CLI's aligned "key : value" style, for the cores/sweep -verbose flag.
func printSolverObs(out io.Writer, reg *obs.Registry) {
	snap := reg.Snapshot()
	for _, h := range snap.Histograms {
		if !strings.HasPrefix(h.Name, "numeric.") {
			continue
		}
		if h.Count == 0 {
			fmt.Fprintf(out, "solver obs    : %-26s 0 calls\n", h.Name)
			continue
		}
		fmt.Fprintf(out, "solver obs    : %-26s %d calls, %.0f iterations (avg %.1f)\n",
			h.Name, h.Count, h.Sum, h.Mean())
	}
	for _, c := range snap.Counters {
		if !strings.HasPrefix(c.Name, "numeric.") {
			continue
		}
		fmt.Fprintf(out, "solver obs    : %-26s %d\n", c.Name, c.Value)
	}
}

// suiteProgress returns an exp.SuiteConfig.OnDone callback that keeps one
// rewriting status line on stderr, tagged with each experiment's outcome,
// or nil when stderr is not a terminal (so tests, pipes, and CI logs stay
// clean).
func suiteProgress() func(done, total int, id, status string) {
	fi, err := os.Stderr.Stat()
	if err != nil || fi.Mode()&os.ModeCharDevice == 0 {
		return nil
	}
	var mu sync.Mutex
	return func(done, total int, id, status string) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(os.Stderr, "\rbandwall: %d/%d experiments done (last: %s %s)\x1b[K", done, total, id, status)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}
