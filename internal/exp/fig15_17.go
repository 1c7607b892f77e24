package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/technique"
)

// assumptionNames maps assumption → (spec string, ValueKey suffix) for the
// candle figures: realistic rows use the bare technique label, the other
// columns get ":pess"/":opt" suffixes (the golden-value key convention).
var assumptionNames = []struct {
	spec   string
	suffix string
}{
	{"pessimistic", ":pess"},
	{"realistic", ""},
	{"optimistic", ":opt"},
}

func fig15Exp() Experiment {
	return Experiment{
		ID:    "fig15",
		Title: "Core scaling with individual techniques across four generations",
		Paper: "BASE reaches only 24 cores at 16x vs 128 ideal; DRAM 47, LC 38, CC 30; direct > indirect, dual > direct.",
		Run:   runFig15,
	}
}

func runFig15(ctx context.Context, _ Options) (*Result, error) {
	// One case per (technique, assumption) plus BASE: the whole figure is a
	// single scenario over four doubling generations.
	cases := []scenario.Case{{Label: "BASE", ValueKey: "BASE"}}
	for _, entry := range technique.Catalog {
		for _, an := range assumptionNames {
			cases = append(cases, scenario.Case{
				Label:      entry.Label + an.suffix,
				Stack:      []technique.Spec{{Name: entry.Label}},
				Assumption: an.spec,
				ValueKey:   entry.Label + an.suffix,
			})
		}
	}
	sp := &scenario.Spec{
		ID:    "fig15",
		Axis:  scenario.Axis{Generations: 4},
		Cases: cases,
	}
	o, err := evalScenario(ctx, sp)
	if err != nil {
		return nil, err
	}

	tb := &render.Table{
		Title:   "Supportable cores (pessimistic / realistic / optimistic)",
		Headers: []string{"technique", "2x", "4x", "8x", "16x"},
	}
	values := o.Values

	// IDEAL and BASE rows first, as in the paper's x-axis.
	basePts := o.PointsFor(0)
	idealRow := []any{"IDEAL"}
	for _, pt := range basePts {
		idealRow = append(idealRow, trim(pt.Proportional))
		values[genKey("IDEAL", pt.Gen.Ratio)] = pt.Proportional
	}
	tb.AddRow(idealRow...)
	baseRow := []any{"BASE"}
	for _, pt := range basePts {
		baseRow = append(baseRow, pt.Cores)
	}
	tb.AddRow(baseRow...)

	// Candle rows: the (pess, real, opt) case triple per technique.
	for ti, entry := range technique.Catalog {
		pess := o.PointsFor(1 + ti*3)
		real := o.PointsFor(2 + ti*3)
		opt := o.PointsFor(3 + ti*3)
		row := []any{entry.Label}
		for gi := range o.Gens {
			row = append(row, fmt.Sprintf("%d/%d/%d", pess[gi].Cores, real[gi].Cores, opt[gi].Cores))
		}
		tb.AddRow(row...)
	}

	// Chart: realistic core counts at 16x per technique.
	var xs, ys []float64
	labels := []string{"IDEAL", "BASE"}
	for _, e := range technique.Catalog {
		labels = append(labels, e.Label)
	}
	for i, l := range labels {
		xs = append(xs, float64(i))
		ys = append(ys, values[genKey(l, 16)])
	}
	chart := &render.Chart{
		Title: "Fig 15 @16x (realistic): " + strings.Join(labels, ", "), Width: 44, Height: 14,
		Series: []render.Series{{Name: "cores @16x", X: xs, Y: ys}},
	}
	return &Result{
		ID:     "fig15",
		Title:  "Individual techniques across generations",
		Tables: []*render.Table{tb},
		Charts: []*render.Chart{chart},
		Notes: []string{
			"paper @16x realistic: BASE 24, CC 30, DRAM 47, LC 38",
			"indirect techniques are dampened by the -α exponent; direct and dual are not",
		},
		Values: values,
	}, nil
}

func fig16Exp() Experiment {
	return Experiment{
		ID:    "fig16",
		Title: "Core scaling with technique combinations across four generations",
		Paper: "Combining all highly effective techniques (CC/LC + DRAM + 3D + SmCl) achieves super-proportional scaling: 183 cores (71% of the die) at 16x.",
		Run:   runFig16,
	}
}

func runFig16(ctx context.Context, _ Options) (*Result, error) {
	// One case per (combination, assumption) plus BASE, as in fig15: each
	// combination names its builders, and the case's assumption picks
	// their Table 2 parameters.
	cases := []scenario.Case{{Label: "BASE"}}
	for _, names := range technique.Fig16Stacks {
		label := strings.Join(names, " + ")
		stack := make([]technique.Spec, len(names))
		for i, name := range names {
			stack[i] = technique.Spec{Name: name}
		}
		for _, an := range assumptionNames {
			c := scenario.Case{Label: label, Stack: stack, Assumption: an.spec}
			if an.suffix == "" {
				c.ValueKey = label
			}
			cases = append(cases, c)
		}
	}
	sp := &scenario.Spec{
		ID:    "fig16",
		Axis:  scenario.Axis{Generations: 4},
		Cases: cases,
	}
	o, err := evalScenario(ctx, sp)
	if err != nil {
		return nil, err
	}

	tb := &render.Table{
		Title:   "Supportable cores (pessimistic / realistic / optimistic)",
		Headers: []string{"combination", "2x", "4x", "8x", "16x"},
	}
	values := o.Values

	basePts := o.PointsFor(0)
	idealRow := []any{"IDEAL"}
	for _, pt := range basePts {
		idealRow = append(idealRow, trim(pt.Proportional))
	}
	tb.AddRow(idealRow...)
	baseRow := []any{"BASE"}
	for _, pt := range basePts {
		baseRow = append(baseRow, pt.Cores)
	}
	tb.AddRow(baseRow...)

	for i := range technique.Fig16Stacks {
		pess := o.PointsFor(1 + i*3)
		real := o.PointsFor(2 + i*3)
		opt := o.PointsFor(3 + i*3)
		row := []any{cases[2+i*3].Label}
		for gi := range o.Gens {
			row = append(row, fmt.Sprintf("%d/%d/%d", pess[gi].Cores, real[gi].Cores, opt[gi].Cores))
		}
		tb.AddRow(row...)
	}

	// Headline: the all-combined configuration's die share at 16x (the
	// last generation of the last realistic case).
	allPts := o.PointsFor(2 + (len(technique.Fig16Stacks)-1)*3)
	values["allcombined:area%@16x"] = 100 * allPts[3].AreaFraction

	return &Result{
		ID:     "fig16",
		Title:  "Technique combinations across generations",
		Tables: []*render.Table{tb},
		Notes: []string{
			"paper: CC/LC + DRAM + 3D + SmCl reaches 183 cores (71% of the die) at 16x — super-proportional",
			"LC + SmCl alone cut traffic 70% directly; 3D DRAM + CC + SmCl grow effective cache 53x",
		},
		Values: values,
	}, nil
}

func fig17Exp() Experiment {
	return Experiment{
		ID:    "fig17",
		Title: "Core scaling sensitivity to workload α",
		Paper: "A large α (0.62) supports nearly twice the cores of a small α (0.25) at BASE, and the gap widens with techniques: small α blocks proportional scaling, large α exceeds it.",
		Run:   runFig17,
	}
}

func runFig17(ctx context.Context, _ Options) (*Result, error) {
	configs := []struct {
		label string
		stack []technique.Spec
	}{
		{"BASE", nil},
		{"DRAM", []technique.Spec{{Name: "DRAM", Params: map[string]float64{"density": 8}}}},
		{"CC/LC + DRAM", []technique.Spec{
			{Name: "CC/LC", Params: map[string]float64{"ratio": 2}},
			{Name: "DRAM", Params: map[string]float64{"density": 8}},
		}},
		{"CC/LC + DRAM + 3D", []technique.Spec{
			{Name: "CC/LC", Params: map[string]float64{"ratio": 2}},
			{Name: "DRAM", Params: map[string]float64{"density": 8}},
			{Name: "3D", Params: map[string]float64{"density": 1}},
		}},
	}
	alphas := []float64{0.25, 0.62}
	var cases []scenario.Case
	for _, cfg := range configs {
		for _, a := range alphas {
			cases = append(cases, scenario.Case{
				Label:    cfg.label,
				Stack:    cfg.stack,
				Alpha:    a,
				ValueKey: fmt.Sprintf("%s:a=%.2f", cfg.label, a),
			})
		}
	}
	sp := &scenario.Spec{
		ID:    "fig17",
		Axis:  scenario.Axis{Generations: 4},
		Cases: cases,
	}
	o, err := evalScenario(ctx, sp)
	if err != nil {
		return nil, err
	}

	tb := &render.Table{
		Title:   "Supportable cores: α = 0.25 vs α = 0.62",
		Headers: []string{"configuration", "α", "2x", "4x", "8x", "16x"},
	}
	idealRow := []any{"IDEAL", "-"}
	for _, g := range o.Gens {
		idealRow = append(idealRow, trim(8*g.Ratio))
	}
	tb.AddRow(idealRow...)
	for ci, c := range cases {
		row := []any{c.Label, c.Alpha}
		for _, pt := range o.PointsFor(ci) {
			row = append(row, pt.Cores)
		}
		tb.AddRow(row...)
	}
	return &Result{
		ID:     "fig17",
		Title:  "α sensitivity",
		Tables: []*render.Table{tb},
		Notes: []string{
			"paper: at BASE a large α enables almost twice the cores of a small α; with stacked techniques the gap widens further",
		},
		Values: o.Values,
	}, nil
}
