package scaling

import (
	"context"
	"fmt"

	"repro/internal/numeric"
	"repro/internal/robust"
	"repro/internal/technique"
)

// Generation describes one future process-technology generation relative to
// the baseline: Ratio× the transistors, hence Ratio× the CEAs.
type Generation struct {
	Index int     // 1-based generation number (1 = next generation)
	Ratio float64 // transistor/area scaling ratio vs baseline (2, 4, 8, 16, …)
	N     float64 // total CEAs available at this generation
}

// String implements fmt.Stringer.
func (g Generation) String() string {
	return fmt.Sprintf("%gx (%g CEAs)", g.Ratio, g.N)
}

// Generations returns count future generations, doubling area each step
// from the baseline area n1 (the paper's 2x, 4x, 8x, 16x axis for count=4).
func Generations(n1 float64, count int) []Generation {
	out := make([]Generation, count)
	ratio := 1.0
	for i := 0; i < count; i++ {
		ratio *= 2
		out[i] = Generation{Index: i + 1, Ratio: ratio, N: n1 * ratio}
	}
	return out
}

// ScalingRatios returns generations for explicit scaling ratios (Fig 3 uses
// 1x..128x rather than a fixed four-generation horizon).
func ScalingRatios(n1 float64, ratios []float64) []Generation {
	out := make([]Generation, len(ratios))
	for i, r := range ratios {
		out[i] = Generation{Index: i, Ratio: r, N: n1 * r}
	}
	return out
}

// GenPoint is one generation's outcome for a technique stack.
type GenPoint struct {
	Gen          Generation
	Cores        int     // supportable whole cores under the budget
	ExactCores   float64 // the fractional solution of Eq. 7
	AreaFraction float64 // fraction of processor die used by cores
	Proportional float64 // ideal-scaling core count for reference
}

// SweepGenerations solves supportable cores for the stack across the given
// generations under a per-generation traffic budget. The budget compounds:
// generation g may use budgetPerGen^g × baseline traffic (budgetPerGen = 1
// reproduces the paper's constant-traffic envelope).
func (s Solver) SweepGenerations(st technique.Stack, gens []Generation, budgetPerGen float64) ([]GenPoint, error) {
	pm := st.Params()
	cons := Bandwidth(budgetPerGen, true)
	out := make([]GenPoint, 0, len(gens))
	for _, g := range gens {
		sol, err := cons.Solve(context.TODO(), nil, s, pm, g.N, g.Index)
		if err != nil {
			return nil, fmt.Errorf("scaling: generation %s: %w", g, err)
		}
		out = append(out, GenPoint{
			Gen:          g,
			Cores:        sol.Cores,
			ExactCores:   sol.Exact,
			AreaFraction: pm.CoreArea * sol.Exact / g.N,
			Proportional: s.ProportionalCores(g.N),
		})
	}
	return out, nil
}

// BreakEvenSharing returns the data-sharing fraction f_sh at which p2 cores
// on an n2-CEA chip (with C2 = N2 − P2 shared cache) generate exactly
// budget × baseline traffic (Fig 13's 100% crossings). It returns an error
// if even full sharing (f_sh → 1) cannot meet the budget.
func (s Solver) BreakEvenSharing(n2, p2, budget float64) (float64, error) {
	return s.BreakEvenSharingCtx(context.Background(), n2, p2, budget)
}

// BreakEvenSharingCtx is BreakEvenSharing with cancellation propagated
// into the root finder; domain violations wrap robust.ErrDomain.
func (s Solver) BreakEvenSharingCtx(ctx context.Context, n2, p2, budget float64) (float64, error) {
	if !(p2 > 0) || p2 >= n2 {
		return 0, fmt.Errorf("scaling: cores p2=%g must be in (0, n2=%g): %w", p2, n2, robust.ErrDomain)
	}
	f := func(fsh float64) float64 {
		st := technique.Combine(technique.DataSharing{SharedFrac: fsh})
		return st.Traffic(s.model, n2, p2) - budget
	}
	if f(0) <= 0 {
		return 0, nil // already within budget without sharing
	}
	const hi = 1 - 1e-9
	if f(hi) > 0 {
		return 0, fmt.Errorf("scaling: %g cores on %g CEAs exceed budget %g even with full sharing: %w", p2, n2, budget, robust.ErrDomain)
	}
	root, err := numeric.RobustRoot(ctx, f, 0, hi, 1e-10)
	if err != nil {
		return 0, err
	}
	return root, nil
}
