// Package exp contains one driver per figure and table of the paper's
// evaluation, plus grounding experiments for the modeling assumptions
// (write-back constancy, compression ratios, queueing collapse). Each
// driver returns a structured Result that the CLI renders and the test
// suite checks against the paper's reported numbers.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/robust"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks simulation sizes for fast CI runs; headline *model*
	// numbers are unaffected (they are closed-form), only the
	// simulation-backed experiments get noisier.
	Quick bool
	// Seed offsets all workload seeds for sensitivity checks.
	Seed int64
	// Brute forces miss-curve sweeps through the brute-force per-size
	// simulator instead of the single-pass mattson profiler. Results are
	// identical for profiler-eligible configurations (that equivalence is
	// pinned by tests); the flag exists as an escape hatch and as the
	// cross-validation baseline.
	Brute bool
	// ProfileWorkers pins the mattson profiler's set-parallel worker
	// count: 0 lets the profiler pick (GOMAXPROCS, one worker for small
	// set counts), 1 runs one worker inline on the calling goroutine.
	// Results are bit-identical for every value — the partition is by
	// cache set, and per-set LRU state never crosses a partition — so the
	// knob only matters for wall-clock and for pinning one path in tests.
	ProfileWorkers int
}

// Result is one experiment's rendered output plus machine-readable
// headline values.
type Result struct {
	ID     string
	Title  string
	Tables []*render.Table
	Charts []*render.Chart
	Notes  []string
	// Values holds the headline numbers (keyed like "cores@16x") that the
	// test suite pins against the paper and EXPERIMENTS.md reports.
	Values map[string]float64
}

// Value fetches a headline number, with existence reporting.
func (r *Result) Value(key string) (float64, bool) {
	v, ok := r.Values[key]
	return v, ok
}

// SortedValueKeys returns the Values keys in lexical order for stable
// rendering.
func (r *Result) SortedValueKeys() []string {
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the full result as text.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, tb := range r.Tables {
		sb.WriteByte('\n')
		sb.WriteString(tb.String())
	}
	for _, ch := range r.Charts {
		sb.WriteByte('\n')
		sb.WriteString(ch.String())
	}
	if len(r.Notes) > 0 {
		sb.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&sb, "note: %s\n", n)
		}
	}
	if len(r.Values) > 0 {
		sb.WriteString("\nheadline values:\n")
		for _, k := range r.SortedValueKeys() {
			fmt.Fprintf(&sb, "  %-28s %v\n", k, trim(r.Values[k]))
		}
	}
	return sb.String()
}

func trim(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// Experiment is a registered, runnable reproduction unit. Run receives a
// context that drivers thread into their sweep loops (cachesim, mattson,
// scaling, numeric all poll it at batch boundaries), so cancellation and
// per-experiment timeouts take effect mid-sweep rather than between
// experiments.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports for this figure/table.
	Paper string
	Run   func(context.Context, Options) (*Result, error)
}

// Registry lists every experiment in paper order (populated in
// registry.go, which fixes the order explicitly).
var Registry []Experiment

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunOne executes one experiment wrapped in an obs span named
// "exp.<id>", so any live metrics registry records its wall-clock and
// allocation footprint. With collection disabled the span is a free
// no-op. This is the entry point the CLI and the parallel driver share;
// calling e.Run directly skips instrumentation.
//
// RunOne is additionally the pipeline's panic barrier: any panic escaping
// the driver (library invariant violations, injected worker panics) is
// contained into a *robust.PanicError return with the stack attached, so
// one bad configuration can never take down a suite run. The context is
// tagged with the experiment id as the fault-injection scope, and the
// "exp.run" injection point fires before the driver.
func RunOne(ctx context.Context, e Experiment, o Options) (r *Result, err error) {
	if cerr := robust.Err(ctx); cerr != nil {
		return nil, cerr
	}
	ctx = robust.WithScope(ctx, e.ID)
	sp := obs.StartSpan("exp." + e.ID)
	defer sp.End()
	defer robust.Recover(&err)
	if ierr := robust.Hit(ctx, "exp.run"); ierr != nil {
		return nil, ierr
	}
	return e.Run(ctx, o)
}
