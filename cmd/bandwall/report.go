package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"repro/internal/exp"
)

// cmdReport runs every experiment and emits a single Markdown report —
// an auto-generated EXPERIMENTS-style document with live numbers, plus a
// per-experiment timing section read from the experiments' run traces.
//
//	report [-quick] [-jobs N] [-metrics FILE] [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
func cmdReport(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduce simulation fidelity for speed")
	jobs := fs.Int("jobs", 4, "parallel workers")
	metricsFile := fs.String("metrics", "", "write run traces and metrics as NDJSON to `FILE`")
	pf := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, restore := enableObs()
	defer restore()
	prof, err := pf.start()
	if err != nil {
		return err
	}
	defer prof.stopQuiet()
	outcomes, err := exp.RunSuite(ctx, exp.Registry, exp.Options{Quick: *quick}, exp.SuiteConfig{Workers: *jobs, OnDone: suiteProgress()})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Bandwidth-wall reproduction report")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Auto-generated by `bandwall report`. One section per paper figure/table")
	fmt.Fprintln(out, "plus the extensions and ablations; see EXPERIMENTS.md for the")
	fmt.Fprintln(out, "paper-vs-measured commentary.")
	mode := "full fidelity"
	if *quick {
		mode = "quick mode (reduced simulation sizes)"
	}
	fmt.Fprintf(out, "\nRun mode: %s.\n", mode)
	for _, oc := range outcomes {
		r := oc.Result
		info, _ := exp.ByID(r.ID)
		fmt.Fprintf(out, "\n## %s — %s\n\n", r.ID, r.Title)
		if info.Paper != "" {
			fmt.Fprintf(out, "> Paper: %s\n\n", info.Paper)
		}
		for _, tb := range r.Tables {
			fmt.Fprintln(out, tb.Markdown())
		}
		for _, n := range r.Notes {
			fmt.Fprintf(out, "- %s\n", n)
		}
		if len(r.Values) > 0 {
			fmt.Fprintf(out, "\n<details><summary>headline values</summary>\n\n```\n")
			for _, k := range r.SortedValueKeys() {
				fmt.Fprintf(out, "%-40s %v\n", k, r.Values[k])
			}
			fmt.Fprintf(out, "```\n</details>\n")
		}
	}
	fmt.Fprintf(out, "\n## Timings\n\n")
	fmt.Fprintln(out, "Wall-clock per experiment, slowest first (allocations are")
	fmt.Fprintln(out, "process-wide runtime/metrics deltas over each run, approximate under")
	fmt.Fprintln(out, "parallelism and quantized: small objects count when a span cache refills).")
	fmt.Fprintln(out)
	tt := timingTable(outcomes)
	tt.Title = ""
	fmt.Fprintln(out, tt.Markdown())
	if *metricsFile != "" {
		if err := writeMetricsFile(*metricsFile, outcomes, reg); err != nil {
			return err
		}
	}
	return prof.stop()
}
