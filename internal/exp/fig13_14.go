package exp

import (
	"context"
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/multicore"
	"repro/internal/render"
	"repro/internal/scaling"
	"repro/internal/technique"
	"repro/internal/workload"
)

func fig13Exp() Experiment {
	return Experiment{
		ID:    "fig13",
		Title: "Impact of data sharing on traffic under proportional scaling",
		Paper: "Keeping traffic constant while scaling to 16/32/64/128 cores requires the shared fraction to grow to ≈40/63/77/86%.",
		Run:   runFig13,
	}
}

func runFig13(ctx context.Context, _ Options) (*Result, error) {
	s := scaling.Default()
	targets := []float64{16, 32, 64, 128}
	fshAxis := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
	tb := &render.Table{
		Title:   "Normalized traffic (%) vs fraction of shared data, proportional scaling",
		Headers: append([]string{"f_sh"}, coreHeaders(targets)...),
	}
	chart := &render.Chart{Title: "Fig 13: traffic vs shared fraction", Width: 56, Height: 18}
	series := make([]render.Series, len(targets))
	for i, p := range targets {
		series[i] = render.Series{Name: fmt.Sprintf("%g cores", p)}
	}
	for _, fsh := range fshAxis {
		row := []any{fsh}
		for i, p := range targets {
			st := technique.Combine(technique.DataSharing{SharedFrac: fsh})
			m := st.Traffic(s.Model(), 2*p, p) // proportional: half the die stays cache
			row = append(row, 100*m)
			series[i].X = append(series[i].X, fsh)
			series[i].Y = append(series[i].Y, 100*m)
		}
		tb.AddRow(row...)
	}
	chart.Series = series

	breakeven := &render.Table{
		Title:   "Break-even shared fraction for constant traffic",
		Headers: []string{"cores", "required f_sh (shared L2)", "required f_sh (private L2s, footnote 1)"},
	}
	values := map[string]float64{}
	for _, p := range targets {
		fsh, err := s.BreakEvenSharingCtx(ctx, 2*p, p, 1)
		if err != nil {
			return nil, err
		}
		// Footnote 1's variant: replication cancels the capacity benefit,
		// so only the fetcher count falls — P' must equal P1 at S2 = S1:
		// f_sh + (1−f_sh)·P = P1 ⇒ f_sh = (P − P1)/(P − 1).
		privFsh := (p - s.Base().P) / (p - 1)
		breakeven.AddRow(p, fsh, privFsh)
		values[fmt.Sprintf("fsh@%gcores", p)] = fsh
		values[fmt.Sprintf("fshPriv@%gcores", p)] = privFsh
	}
	return &Result{
		ID:     "fig13",
		Title:  "Data sharing vs traffic",
		Tables: []*render.Table{tb, breakeven},
		Charts: []*render.Chart{chart},
		Notes: []string{
			"paper: required sharing grows 40% → 63% → 77% → 86% across generations",
			"the required growth is the opposite of the measured PARSEC trend (fig14)",
		},
		Values: values,
	}, nil
}

func coreHeaders(targets []float64) []string {
	out := make([]string, len(targets))
	for i, p := range targets {
		out[i] = fmt.Sprintf("%g cores", p)
	}
	return out
}

func fig14Exp() Experiment {
	return Experiment{
		ID:    "fig14",
		Title: "Measured data sharing in PARSEC-like workloads vs core count",
		Paper: "The fraction of shared evicted L2 lines is ≈15–17.5% and DECREASES with core count: private working sets grow, the shared set does not.",
		Run:   runFig14,
	}
}

// fig14WorkloadConfig builds the PARSEC-stand-in for a given core count.
// The shared region is fixed; each thread adds its own private set —
// Bienia et al.'s characterization, which the paper cites for this figure.
func fig14WorkloadConfig(cores int, seed int64) workload.SharedPrivateConfig {
	return workload.SharedPrivateConfig{
		Threads:          cores,
		SharedLines:      1 << 13, // 512KB shared set, fixed across core counts
		PrivateLines:     1 << 13, // 512KB private set per thread
		SharedAccessFrac: 0.7,     // PARSEC kernels hit shared data heavily
		Skew:             1.01,    // near-uniform within each region
		WriteFraction:    0.2,
		Seed:             99 + seed,
	}
}

// fig14Warmup is the accesses each core count runs uncounted, out of its
// budget, so lifetimes are counted from a warm L2 rather than a cold one.
const fig14Warmup = 100_000

func runFig14(ctx context.Context, o Options) (*Result, error) {
	accesses := 1_200_000
	if o.Quick {
		accesses = 250_000
	}
	tb := &render.Table{
		Title:   "Fraction of shared cache lines at eviction (shared L2)",
		Headers: []string{"cores", "% shared lines", "evicted lifetimes"},
	}
	values := map[string]float64{}
	var xs, ys []float64
	for _, cores := range []int{4, 8, 16} {
		cfg := multicore.Config{
			Cores: cores,
			L1: cachesim.Config{
				SizeBytes: 16 * 1024, LineBytes: 64, Assoc: 4,
				Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
			},
			L2: cachesim.Config{
				SizeBytes: 512 * 1024, LineBytes: 64, Assoc: 8,
				Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
			},
		}
		cmp, err := multicore.New(cfg)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewSharedPrivate(fig14WorkloadConfig(cores, o.Seed))
		if err != nil {
			return nil, err
		}
		if err := cmp.Run(gen, fig14Warmup, accesses); err != nil {
			return nil, err
		}
		st := cmp.Sharing()
		frac := st.SharedFraction()
		tb.AddRow(cores, 100*frac, st.EvictedLines)
		values[fmt.Sprintf("shared%%@%dcores", cores)] = 100 * frac
		xs = append(xs, float64(cores))
		ys = append(ys, 100*frac)
	}
	chart := &render.Chart{
		Title: "Fig 14: % shared cache lines vs processors", Width: 40, Height: 12,
		Series: []render.Series{{Name: "% shared lines", X: xs, Y: ys}},
	}
	return &Result{
		ID:     "fig14",
		Title:  "PARSEC-like sharing behaviour",
		Tables: []*render.Table{tb},
		Charts: []*render.Chart{chart},
		Notes: []string{
			"paper: ≈15–17.5%, decreasing with core count — sharing will not rescue CMP scaling on its own",
		},
		Values: values,
	}, nil
}
