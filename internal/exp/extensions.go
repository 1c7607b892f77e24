package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/hetero"
	"repro/internal/render"
	"repro/internal/scaling"
	"repro/internal/scenario"
	"repro/internal/technique"
)

// The ext-* experiments go beyond the paper's figures into the scenarios
// its text discusses but does not quantify.

func extEnvelopeExp() Experiment {
	return Experiment{
		ID:    "ext-envelope",
		Title: "Extension: bandwidth-envelope growth scenarios",
		Paper: "§1/§5.1 discuss envelopes qualitatively: ITRS projects pin counts +10%/year while cores double every 18 months; §5.1 also tries an optimistic 50%-per-generation envelope.",
		Run:   runExtEnvelope,
	}
}

// itrsBudgetPerGen converts ITRS's +10%/year pin growth into a
// per-generation traffic budget, with a generation every 18 months:
// 1.1^1.5 ≈ 1.154.
var itrsBudgetPerGen = math.Pow(1.1, 1.5)

func runExtEnvelope(ctx context.Context, _ Options) (*Result, error) {
	// Stack × envelope grid as one compounding-budget scenario: each case's
	// envelope is raised to the generation index, SweepGenerations-style.
	envelopes := []struct {
		name   string
		budget float64
	}{
		{"constant (paper default)", 1},
		{"ITRS pins (+10%/yr → 1.154x/gen)", itrsBudgetPerGen},
		{"optimistic (1.5x/gen)", 1.5},
		{"proportional-sustaining (2x/gen)", 2},
	}
	stacks := []struct {
		name  string
		stack []technique.Spec
	}{
		{"BASE", nil},
		{"DRAM=8", []technique.Spec{{Name: "DRAM", Params: map[string]float64{"density": 8}}}},
	}
	var cases []scenario.Case
	for _, stk := range stacks {
		for _, env := range envelopes {
			cases = append(cases, scenario.Case{
				Label:  fmt.Sprintf("%s under %s", stk.name, env.name),
				Stack:  stk.stack,
				Budget: env.budget,
			})
		}
	}
	sp := &scenario.Spec{
		ID:     "ext-envelope",
		Budget: scenario.Budget{Compound: true},
		Axis:   scenario.Axis{Generations: 4},
		Cases:  cases,
	}
	o, err := evalScenario(ctx, sp)
	if err != nil {
		return nil, err
	}
	tb := &render.Table{
		Title:   "Supportable cores under growing bandwidth envelopes",
		Headers: []string{"stack", "envelope", "2x", "4x", "8x", "16x"},
	}
	values := map[string]float64{}
	ci := 0
	for _, stk := range stacks {
		for _, env := range envelopes {
			pts := o.PointsFor(ci)
			ci++
			row := []any{stk.name, env.name}
			for _, p := range pts {
				row = append(row, p.Cores)
			}
			tb.AddRow(row...)
			values[fmt.Sprintf("%s:%s@16x", stk.name, env.name)] = float64(pts[3].Cores)
		}
	}
	return &Result{
		ID:     "ext-envelope",
		Title:  "Envelope growth scenarios",
		Tables: []*render.Table{tb},
		Notes: []string{
			"only a 2x-per-generation envelope sustains proportional scaling without techniques — exactly the doubling the pin roadmap cannot deliver",
			"ITRS-rate pin growth recovers only a few cores per generation over a constant envelope",
		},
		Values: values,
	}, nil
}

func extHeteroExp() Experiment {
	return Experiment{
		ID:    "ext-hetero",
		Title: "Extension: heterogeneous CMPs under the bandwidth envelope",
		Paper: "§3 defers heterogeneous CMPs (\"potential of being more area efficient ... design space too large\"); this extension quantifies the deferred case with optimal cache partitioning.",
		Run:   runExtHetero,
	}
}

func runExtHetero(ctx context.Context, _ Options) (*Result, error) {
	big := hetero.CoreClass{Name: "big", AreaCEA: 1, TrafficWeight: 1, PerfWeight: 1}
	// Kumar et al.-style little core (the paper's own smaller-core
	// citations): much smaller, slower, and bandwidth-leaner.
	// Per unit of work the little core also generates less traffic: it
	// lacks the speculative machinery §6.1 blames for wasted bandwidth.
	little := hetero.CoreClass{Name: "little", AreaCEA: 0.25, TrafficWeight: 0.3, PerfWeight: 0.5}
	const alpha = 0.5
	// The paper's baseline chip generates 8 traffic units; a constant
	// envelope is budget 8.
	const budget = 8.0

	tb := &render.Table{
		Title:   "Big+little mixes on a 32-CEA die, constant envelope, optimal cache partitioning",
		Headers: []string{"big cores", "little cores", "cache CEAs", "traffic", "throughput (baseline cores)"},
	}
	values := map[string]float64{}
	for _, pb := range []float64{0, 2, 4, 6, 8, 11} {
		pl, err := hetero.MaxSecondary(big, little, pb, 32, budget, alpha)
		if err != nil {
			return nil, err
		}
		pl = math.Floor(pl)
		ch := hetero.Chip{
			Classes:   []hetero.CoreClass{big, little},
			Counts:    []float64{pb, pl},
			CacheCEAs: 32 - pb*big.AreaCEA - pl*little.AreaCEA,
			Alpha:     alpha,
		}
		m, err := ch.Traffic()
		if err != nil {
			return nil, err
		}
		tb.AddRow(pb, pl, ch.CacheCEAs, m, ch.Throughput())
		values[fmt.Sprintf("littles@%gbig", pb)] = pl
		values[fmt.Sprintf("throughput@%gbig", pb)] = ch.Throughput()
	}

	best, err := hetero.BestMix(big, little, 32, budget, alpha)
	if err != nil {
		return nil, err
	}
	values["best:big"] = best.Counts[0]
	values["best:little"] = best.Counts[1]
	values["best:throughput"] = best.Throughput

	// Homogeneous reference: 11 baseline cores (Fig 2).
	sol := scaling.Default()
	homog, err := maxCores(ctx, sol, technique.Combine(), 32)
	if err != nil {
		return nil, err
	}
	values["homogeneous:cores"] = float64(homog)
	values["homogeneous:throughput"] = float64(homog)

	best2 := &render.Table{
		Title:   "Best mix vs the homogeneous design",
		Headers: []string{"design", "cores", "throughput"},
	}
	best2.AddRow("homogeneous (Fig 2)", homog, homog)
	best2.AddRow(fmt.Sprintf("best hetero (%g big + %g little)", best.Counts[0], best.Counts[1]),
		best.Counts[0]+best.Counts[1], best.Throughput)

	return &Result{
		ID:     "ext-hetero",
		Title:  "Heterogeneous CMP extension",
		Tables: []*render.Table{tb, best2},
		Notes: []string{
			"bandwidth-lean little cores convert the same traffic envelope into more aggregate throughput — confirming §3's area-efficiency intuition",
			"cache is partitioned across classes by the water-filling rule s_i ∝ m_i^(1/(1+α))",
		},
		Values: values,
	}, nil
}
