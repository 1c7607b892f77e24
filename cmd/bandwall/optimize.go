package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/optimize"
	"repro/internal/scenario"
)

// cmdOptimize runs inverse design-space queries: for each OptimizeSpec
// file it searches the technique-stack power set and prints the best
// design plus the Pareto frontier. All
// specs share one optimizer, so repeated stacks across files resolve from
// the solver cache.
func cmdOptimize(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit results as JSON instead of text")
	csvDir := fs.String("csv", "", "also write each query's tables as CSV into DIR")
	jobs := fs.Int("jobs", 0, "parallel workers (0 = GOMAXPROCS)")
	paths, err := parseInterleaved(fs, args)
	if err != nil {
		return usageError{err}
	}
	if len(paths) == 0 {
		return usagef("optimize: need optimize spec files (see examples/scenarios/optimize-area-budget.json)")
	}
	opt := optimize.New()
	opt.Workers = *jobs
	var results []*optimize.Result
	seen := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		osp, err := scenario.ParseOptimizeSpec(data)
		if err != nil {
			return usagef("optimize: %s: %v", path, err)
		}
		if prev, dup := seen[osp.ID]; dup {
			return usagef("optimize: %s and %s both declare id %q", prev, path, osp.ID)
		}
		seen[osp.ID] = path
		res, err := opt.Search(ctx, osp)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	} else {
		for _, res := range results {
			for _, tb := range res.Tables() {
				fmt.Fprintln(out, tb.String())
			}
			fmt.Fprintf(out, "evaluated %d stacks\n\n", res.Stacks)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for _, res := range results {
			for i, tb := range res.Tables() {
				name := fmt.Sprintf("%s_%d.csv", res.Spec.ID, i)
				if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(tb.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
