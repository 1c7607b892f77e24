package exp

import (
	"context"
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/fit"
	"repro/internal/render"
	"repro/internal/suite"
	"repro/internal/trace"
	"repro/internal/workload"
)

func fig01Exp() Experiment {
	return Experiment{
		ID:    "fig01",
		Title: "Normalized cache miss rate vs cache size (power law of cache misses)",
		Paper: "Workloads follow m = m0·(C/C0)^-α with α ∈ [0.25, 0.62]; commercial average ≈ 0.48; individual SPEC apps have discrete working sets and fit less well.",
		Run:   runFig01,
	}
}

// fig01Sweep is fig01's sweep at one fidelity.
type fig01Sweep struct {
	build suite.BuildOptions
	sizes []int
	// warmup and accesses are the phased workload's: it draws accesses
	// in all, and the first warmup only warm the caches.
	warmup, accesses int
}

func newFig01Sweep(o Options) fig01Sweep {
	sw := fig01Sweep{build: suite.DefaultBuildOptions(), warmup: 400_000, accesses: 1_600_000}
	sw.build.Seed = o.Seed
	maxSize := 4 * 1024 * 1024
	if o.Quick {
		sw.accesses, sw.warmup, maxSize = 300_000, 60_000, 512*1024
		sw.build.FootprintLines = 1 << 17
		sw.build.PhasedLines = 2048
	}
	sw.build.PhasedDwell = sw.accesses / 3
	sw.sizes = cachesim.PowerOfTwoSizes(32*1024, maxSize)
	return sw
}

// stream builds wl's generator and returns it with the accesses to draw
// from it, of which the first warmup only warm the caches. A power-law
// generator draws no warmup: a warm prefix of the largest swept cache's
// lines puts every swept cache in the stream's steady state, and the same
// measured window follows it. The phased workload keeps its drawn warmup.
func (sw fig01Sweep) stream(wl suite.Workload) (gen trace.Generator, warmup, n int, err error) {
	if gen, err = wl.Build(sw.build); err != nil {
		return nil, 0, 0, err
	}
	sd, ok := gen.(*workload.StackDistance)
	if !ok {
		return gen, sw.warmup, sw.accesses, nil
	}
	prefix := sw.sizes[len(sw.sizes)-1] / workload.LineBytes
	if gen, err = sd.WarmPrefix(prefix); err != nil {
		return nil, 0, 0, err
	}
	return gen, prefix, prefix + sw.accesses - sw.warmup, nil
}

func runFig01(ctx context.Context, o Options) (*Result, error) {
	sw := newFig01Sweep(o)
	base := cachesim.Config{
		LineBytes: 64, Assoc: 8, Policy: cachesim.LRU,
		WriteBack: true, WriteAllocate: true,
	}

	curveTable := &render.Table{
		Title:   "Normalized miss rate by cache size (each column ÷ value at 32KB)",
		Headers: append([]string{"workload"}, sizeHeaders(sw.sizes)...),
	}
	fitTable := &render.Table{
		Title:   "Power-law fits (log-log least squares; 90% bootstrap CI)",
		Headers: []string{"workload", "target α", "fitted α", "90% CI", "R²", "conforms"},
	}
	chart := &render.Chart{Title: "Fig 1: normalized miss rate vs cache size (log-log)", LogX: true, LogY: true, Width: 56, Height: 18}
	values := map[string]float64{}

	var commercialAlphas []float64
	for wi, wl := range suite.Paper {
		gen, warmup, n, err := sw.stream(wl)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		pts, err := missCurve(ctx, o, gen, base, sw.sizes, warmup, n)
		if err != nil {
			return nil, err
		}
		norm := cachesim.NormalizedMissRates(pts)
		row := make([]any, 0, len(norm)+1)
		row = append(row, wl.Name)
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			row = append(row, norm[i])
			xs[i] = float64(p.SizeBytes) / 1024
			ys[i] = norm[i]
		}
		curveTable.AddRow(row...)
		chart.Series = append(chart.Series, render.Series{Name: wl.Name, X: xs, Y: ys})

		boot, err := fit.Bootstrap(pts, 300, 0.9, 1700+int64(wi))
		if err != nil {
			return nil, err
		}
		res := boot.Point
		target := "-"
		if !wl.Phased {
			target = fmt.Sprintf("%.2f", wl.TargetAlpha)
			if wl.Class == suite.Commercial {
				commercialAlphas = append(commercialAlphas, res.Alpha)
			}
		}
		fitTable.AddRow(wl.Name, target, res.Alpha,
			fmt.Sprintf("[%.3f, %.3f]", boot.AlphaLo, boot.AlphaHi),
			res.R2, res.Conforms())
		values["alpha:"+wl.Name] = res.Alpha
		values["r2:"+wl.Name] = res.R2
		values["alphaLo:"+wl.Name] = boot.AlphaLo
		values["alphaHi:"+wl.Name] = boot.AlphaHi
	}
	var commercialAvg float64
	for _, a := range commercialAlphas {
		commercialAvg += a
	}
	commercialAvg /= float64(len(commercialAlphas))
	values["alpha:commercial-avg"] = commercialAvg

	return &Result{
		ID:     "fig01",
		Title:  "Power law of cache misses",
		Tables: []*render.Table{curveTable, fitTable},
		Charts: []*render.Chart{chart},
		Notes: []string{
			fmt.Sprintf("fitted commercial average α = %.3f (paper: 0.48)", commercialAvg),
			"paper: α spans 0.25 (SPEC2006 avg) to 0.62 (OLTP-4); the phased SPEC app fits the power law poorly",
		},
		Values: values,
	}, nil
}

// sizeHeaders renders cache sizes as KB/MB labels.
func sizeHeaders(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		if s >= 1<<20 {
			out[i] = fmt.Sprintf("%dMB", s>>20)
		} else {
			out[i] = fmt.Sprintf("%dKB", s>>10)
		}
	}
	return out
}
