// Command bandwall reproduces the evaluation of Rogers et al., "Scaling
// the Bandwidth Wall" (ISCA 2009), and exposes the underlying analytical
// model for custom what-if questions.
//
// Usage:
//
//	bandwall list
//	bandwall run [suite flags] [-quick] <experiment-id>... | all
//	bandwall eval [suite flags] SPEC.json...
//	bandwall optimize [-json] [-csv DIR] [-jobs N] SPEC.json...
//	bandwall serve [-addr HOST:PORT] [-inflight N] [-timeout D] [-drain D] [-cache N] [-tracebuf N] [-debug-addr HOST:PORT] [-quiet]
//	bandwall gateway -replicas URL,URL,... [-addr HOST:PORT] [-attempts N] [-breaker-threshold N] [-breaker-cooldown D] [-hedge Q] [-stale-cache N]
//	bandwall loadgen [-url URL] [-spec SPEC.json] [-c N] [-d D] [-chaos]
//	bandwall top [-url URL] [-interval D] [-n N] [-route R] [-plain]
//	bandwall cores [-n2 N] [-budget B] [-alpha A] [-tech SPEC] [-verbose]
//	bandwall traffic [-p2 P] [-c2 C] [-alpha A] [-tech SPEC]
//	bandwall sweep [-gens G] [-budget B] [-alpha A] [-tech SPEC] [-verbose]
//	bandwall trace gen|stats|sim [flags]
//	bandwall report [-quick] [-jobs N] [-metrics FILE]
//	bandwall selftest [SPEC.json...]
//	bandwall fit [-ci] [-project=false] FILE.csv
//
// The shared suite flags (run, eval) are -jobs, -csv, -json, -metrics,
// -timings, -timeout, -retries, -backoff, -checkpoint, and -resume. The
// profiling flags (run, eval, report) are -cpuprofile, -memprofile and
// -trace.
//
// Technique SPECs look like "CC/LC=2 + DRAM=8 + 3D + SmCl=0.4"; see
// bandwall.ParseStack for the grammar.
//
// Exit codes: 0 success, 1 experiment or model failure, 2 usage error,
// 130 interrupted (SIGINT/SIGTERM).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/bandwall"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bandwall:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks command-line mistakes so main can exit 2 instead of 1.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// exitCode maps an error from run to the process exit code: 2 for usage
// mistakes, 130 (128+SIGINT) when the run was canceled, 1 otherwise.
func exitCode(err error) int {
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		return 2
	case robust.Classify(err) == robust.Canceled:
		return 130
	default:
		return 1
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	// A fault plan in the environment installs a process-wide injector for
	// the duration of the command — the deterministic chaos hook used by
	// the fault-injection tests and CI job.
	if spec := os.Getenv(robust.EnvFaults); spec != "" {
		plan, err := robust.ParsePlan(spec)
		if err != nil {
			return usagef("%s: %v", robust.EnvFaults, err)
		}
		defer robust.SetInjector(robust.NewInjector(plan))()
	}
	if len(args) == 0 {
		return usagef("missing subcommand (run 'bandwall help' for usage)")
	}
	switch args[0] {
	case "list":
		return cmdList(out)
	case "run":
		return cmdRun(ctx, args[1:], out)
	case "eval":
		return cmdEval(ctx, args[1:], out)
	case "optimize":
		return cmdOptimize(ctx, args[1:], out)
	case "serve":
		return cmdServe(ctx, args[1:], out)
	case "gateway":
		return cmdGateway(ctx, args[1:], out)
	case "loadgen":
		return cmdLoadgen(ctx, args[1:], out)
	case "top":
		return cmdTop(ctx, args[1:], out)
	case "cores":
		return cmdCores(args[1:], out)
	case "traffic":
		return cmdTraffic(args[1:], out)
	case "sweep":
		return cmdSweep(args[1:], out)
	case "trace":
		return cmdTrace(args[1:], out)
	case "report":
		return cmdReport(ctx, args[1:], out)
	case "selftest":
		return cmdSelftest(args[1:], out)
	case "fit":
		return cmdFit(args[1:], out)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		return usagef("unknown subcommand %q (run 'bandwall help' for usage)", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `bandwall — "Scaling the Bandwidth Wall" (ISCA'09) reproduction

subcommands:
  list      list every figure/table reproduction (no flags)
  run       run reproductions:       run [suite flags] [-quick] fig02 fig15 | all
  eval      evaluate scenario specs: eval [suite flags] examples/scenarios/stacked-compression.json
  optimize  inverse design search:   optimize [-json] [-csv DIR] [-jobs N] examples/scenarios/optimize-area-budget.json
  serve     HTTP evaluation service: serve [-addr HOST:PORT] [-inflight N] [-timeout D] [-drain D] [-cache N] [-tracebuf N] [-debug-addr HOST:PORT] [-quiet]
  gateway   fleet front tier:        gateway -replicas URL,URL,... [-addr HOST:PORT] [-attempts N] [-breaker-threshold N] [-breaker-cooldown D] [-hedge Q] [-stale-cache N]
  loadgen   drive a running server:  loadgen [-url URL] [-spec SPEC.json] [-c N] [-d D] [-chaos]
  top       live server dashboard:   top [-url URL] [-interval D] [-n N] [-route R] [-plain]
  cores     supportable cores:       cores -n2 256 -budget 1 -alpha 0.5 -tech "DRAM=8" [-verbose]
  traffic   relative traffic:        traffic -p2 12 -c2 20 -alpha 0.5 -tech ""
  sweep     generation sweep:        sweep -gens 4 -budget 1 -tech "CC/LC=2 + DRAM=8" [-verbose]
  trace     trace files:             trace gen|stats|sim (see trace -h)
  report    run everything and emit a Markdown report: report [-quick] [-jobs N] [-metrics FILE]
  selftest  verify every pinned paper number in seconds: selftest [SPEC.json...]
  fit       fit α to a miss-curve CSV and project core scaling: fit [-ci] [-project=false] FILE.csv

shared suite flags (run, eval):
  -jobs N  -csv DIR  -json  -metrics FILE  -timings
  -timeout D  -retries N  -backoff D  -checkpoint FILE  -resume
profiling (run, eval, report): -cpuprofile FILE  -memprofile FILE  -trace FILE
`)
}

func cmdList(out io.Writer) error {
	tb := &render.Table{
		Title:   "Registered reproductions (paper order)",
		Headers: []string{"id", "title", "paper result"},
	}
	for _, e := range bandwall.Experiments() {
		tb.AddRow(e.ID, e.Title, shorten(e.Paper, 80))
	}
	fmt.Fprint(out, tb.String())
	return nil
}

// shorten truncates s to at most max runes for one-line table cells.
func shorten(s string, max int) string {
	r := []rune(s)
	if len(r) <= max {
		return s
	}
	return string(r[:max-1]) + "…"
}

// suiteFlags bundles the flags shared by the suite-running subcommands
// (run, eval): worker count, robustness knobs, output and profiling hooks.
type suiteFlags struct {
	csvDir      *string
	jobs        *int
	asJSON      *bool
	metricsFile *string
	timings     *bool
	timeout     *time.Duration
	retries     *int
	backoff     *time.Duration
	ckptPath    *string
	resume      *bool
	pf          profileFlags
}

// addSuiteFlags registers the shared suite flags on fs.
func addSuiteFlags(fs *flag.FlagSet) *suiteFlags {
	return &suiteFlags{
		csvDir:      fs.String("csv", "", "also write each experiment's tables as CSV into DIR"),
		jobs:        fs.Int("jobs", 4, "parallel workers"),
		asJSON:      fs.Bool("json", false, "emit results as JSON instead of text"),
		metricsFile: fs.String("metrics", "", "write run traces and metrics as NDJSON to `FILE`"),
		timings:     fs.Bool("timings", false, "print a per-experiment timing table after the results"),
		timeout:     fs.Duration("timeout", 0, "per-attempt experiment timeout (0 = none)"),
		retries:     fs.Int("retries", 2, "extra attempts for transiently failing experiments"),
		backoff:     fs.Duration("backoff", 100*time.Millisecond, "base retry delay, doubling per retry"),
		ckptPath:    fs.String("checkpoint", "", "append per-experiment completion records to NDJSON `FILE`"),
		resume:      fs.Bool("resume", false, "skip experiments recorded clean in the -checkpoint file"),
		pf:          addProfileFlags(fs),
	}
}

// runSuite executes exps under the shared flags: checkpointing, metrics,
// profiling, and report/CSV/JSON output behave identically for every
// suite-running subcommand. name prefixes usage errors.
func (sf *suiteFlags) runSuite(ctx context.Context, name string, exps []exp.Experiment, opts exp.Options, out io.Writer) error {
	if *sf.resume && *sf.ckptPath == "" {
		return usagef("%s: -resume requires -checkpoint FILE", name)
	}
	var reg *obs.Registry
	if *sf.metricsFile != "" {
		var restore func()
		reg, restore = enableObs()
		defer restore()
	}
	prof, err := sf.pf.start()
	if err != nil {
		return err
	}
	defer prof.stopQuiet()
	var ckpt *robust.CheckpointLog
	if *sf.ckptPath != "" {
		ckpt, err = robust.OpenCheckpoint(*sf.ckptPath)
		if err != nil {
			return err
		}
		defer ckpt.Close()
	}
	cfg := exp.SuiteConfig{
		Workers:    *sf.jobs,
		Attempts:   *sf.retries + 1,
		Backoff:    *sf.backoff,
		Timeout:    *sf.timeout,
		Checkpoint: ckpt,
		Resume:     *sf.resume,
		OnDone:     suiteProgress(),
	}
	outcomes, runErr := exp.RunSuite(ctx, exps, opts, cfg)
	if *sf.asJSON {
		var results []*exp.Result
		for _, oc := range outcomes {
			if oc.Result != nil {
				results = append(results, oc.Result)
			}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	} else {
		for _, oc := range outcomes {
			switch oc.Status {
			case exp.StatusOK:
				fmt.Fprintln(out, oc.Result.String())
			case exp.StatusSkipped:
				fmt.Fprintf(out, "%s: skipped (clean checkpoint entry)\n", oc.ID)
			}
		}
	}
	if *sf.csvDir != "" {
		for _, oc := range outcomes {
			if oc.Result == nil {
				continue
			}
			if err := writeCSV(*sf.csvDir, oc.Result); err != nil {
				return err
			}
		}
	}
	if *sf.timings {
		fmt.Fprint(out, timingTable(outcomes).String())
	}
	if *sf.metricsFile != "" {
		if err := writeMetricsFile(*sf.metricsFile, outcomes, reg); err != nil {
			return err
		}
	}
	if runErr != nil {
		fmt.Fprint(out, exp.SuiteSummary(outcomes))
		return runErr
	}
	return prof.stop()
}

func cmdRun(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduce simulation fidelity for speed")
	sf := addSuiteFlags(fs)
	ids, err := parseInterleaved(fs, args)
	if err != nil {
		return usageError{err}
	}
	if len(ids) == 0 {
		return usagef("run: need experiment ids or 'all'")
	}
	var exps []exp.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = exp.Registry
	} else {
		for _, id := range ids {
			e, ok := exp.ByID(id)
			if !ok {
				return usagef("run: unknown experiment %q (try 'bandwall list')", id)
			}
			exps = append(exps, e)
		}
	}
	return sf.runSuite(ctx, "run", exps, exp.Options{Quick: *quick}, out)
}

// cmdEval evaluates user-written scenario specs (examples/scenarios/*.json)
// through the same suite runner as `run`: the -metrics/-timeout/-checkpoint
// flags and the report/NDJSON outputs work unchanged. All specs share one
// scenario engine, so a batch reuses solver results across files.
func cmdEval(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	sf := addSuiteFlags(fs)
	paths, err := parseInterleaved(fs, args)
	if err != nil {
		return usageError{err}
	}
	if len(paths) == 0 {
		return usagef("eval: need scenario spec files (see examples/scenarios)")
	}
	eng := scenario.NewEngine()
	seen := map[string]string{}
	var exps []exp.Experiment
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sp, err := scenario.ParseSpec(data)
		if err != nil {
			return usagef("eval: %s: %v", path, err)
		}
		if prev, dup := seen[sp.ID]; dup {
			return usagef("eval: %s and %s both declare id %q", prev, path, sp.ID)
		}
		seen[sp.ID] = path
		exps = append(exps, exp.FromSpec(sp, eng))
	}
	return sf.runSuite(ctx, "eval", exps, exp.Options{}, out)
}

// parseInterleaved parses fs over args, allowing flags and positional
// arguments in any order ("run all -quick -metrics m.ndjson" and
// "run -quick all" both work — stdlib flag parsing alone stops at the
// first positional). Returns the positional arguments in order.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			return pos, nil
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

func writeCSV(dir string, r *exp.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tb := range r.Tables {
		name := fmt.Sprintf("%s_%d.csv", r.ID, i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(tb.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// modelFlags holds the flags shared by cores/traffic/sweep.
type modelFlags struct {
	alpha *float64
	tech  *string
}

func addModelFlags(fs *flag.FlagSet) modelFlags {
	return modelFlags{
		alpha: fs.Float64("alpha", bandwall.AlphaDefault, "workload cache sensitivity α"),
		tech:  fs.String("tech", "", `technique spec, e.g. "CC/LC=2 + DRAM=8 + 3D + SmCl=0.4"`),
	}
}

func (m modelFlags) build() (bandwall.Solver, bandwall.Stack, error) {
	s, err := bandwall.NewSolver(bandwall.Baseline(), *m.alpha)
	if err != nil {
		return bandwall.Solver{}, bandwall.Stack{}, err
	}
	st, err := bandwall.ParseStack(*m.tech)
	if err != nil {
		return bandwall.Solver{}, bandwall.Stack{}, err
	}
	return s, st, nil
}

func cmdCores(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cores", flag.ContinueOnError)
	n2 := fs.Float64("n2", 32, "total chip area in CEAs")
	budget := fs.Float64("budget", 1, "traffic budget B relative to the baseline")
	verbose := fs.Bool("verbose", false, "also print solver iteration statistics")
	mf := addModelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reg *obs.Registry
	if *verbose {
		var restore func()
		reg, restore = enableObs()
		defer restore()
	}
	s, st, err := mf.build()
	if err != nil {
		return err
	}
	exact, err := s.SupportableCores(st, *n2, *budget)
	if err != nil {
		return err
	}
	cores := scaling.CoresFromExact(exact) // MaxCores's reading, without a second solve
	fmt.Fprintf(out, "configuration : %s (α=%g)\n", st.Label(), s.Alpha())
	fmt.Fprintf(out, "chip          : %g CEAs, traffic budget %gx baseline\n", *n2, *budget)
	fmt.Fprintf(out, "cores         : %d (exact %.3f)\n", cores, exact)
	fmt.Fprintf(out, "proportional  : %g\n", s.ProportionalCores(*n2))
	areaPct := 100 * exact * st.Params().CoreArea / *n2
	fmt.Fprintf(out, "core die area : %.1f%%\n", areaPct)
	if *verbose {
		printSolverObs(out, reg)
	}
	return nil
}

func cmdTraffic(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("traffic", flag.ContinueOnError)
	p2 := fs.Float64("p2", 12, "cores in the new configuration")
	c2 := fs.Float64("c2", 20, "cache CEAs in the new configuration")
	mf := addModelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, st, err := mf.build()
	if err != nil {
		return err
	}
	n2 := *p2 + *c2
	m := s.Traffic(st, n2, *p2)
	fmt.Fprintf(out, "configuration : %s (α=%g)\n", st.Label(), s.Alpha())
	fmt.Fprintf(out, "chip          : P2=%g cores, C2=%g cache CEAs (N2=%g)\n", *p2, *c2, n2)
	fmt.Fprintf(out, "traffic M2/M1 : %.4f\n", m)
	return nil
}

func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	gens := fs.Int("gens", 4, "number of future generations (area doubles each)")
	budget := fs.Float64("budget", 1, "per-generation traffic growth budget")
	verbose := fs.Bool("verbose", false, "also print solver iteration statistics")
	mf := addModelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reg *obs.Registry
	if *verbose {
		var restore func()
		reg, restore = enableObs()
		defer restore()
	}
	s, st, err := mf.build()
	if err != nil {
		return err
	}
	pts, err := s.SweepGenerations(st, bandwall.Generations(s.Base().N(), *gens), *budget)
	if err != nil {
		return err
	}
	tb := &render.Table{
		Title:   fmt.Sprintf("Generation sweep: %s (α=%g, budget %gx/gen)", st.Label(), s.Alpha(), *budget),
		Headers: []string{"generation", "CEAs", "cores", "exact", "% area", "proportional"},
	}
	for _, p := range pts {
		tb.AddRow(p.Gen.String(), p.Gen.N, p.Cores, p.ExactCores, 100*p.AreaFraction, p.Proportional)
	}
	fmt.Fprint(out, tb.String())
	if *verbose {
		printSolverObs(out, reg)
	}
	return nil
}
