// Package scaling answers the paper's central question: how many cores can
// a future CMP support under a bounded memory-traffic budget (Eq. 6–7)?
//
// It wraps the power-law traffic model and the technique models in a
// numeric solver: for a chip of N2 total CEAs and a traffic budget of
// B × baseline, find P2 such that M2(P2)/M1 = B. Traffic is strictly
// increasing in P2 (more cores both generate more streams and shrink the
// cache share), so the root is unique and bracketed.
package scaling

import (
	"context"
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/robust"
	"repro/internal/technique"
)

// Solver finds supportable core counts for a fixed baseline and workload α.
type Solver struct {
	model power.TrafficModel
}

// New constructs a Solver for the given baseline allocation and workload α.
func New(base power.Config, alpha float64) (Solver, error) {
	m, err := power.NewTrafficModel(base, alpha)
	if err != nil {
		return Solver{}, err
	}
	return Solver{model: m}, nil
}

// MustNew is New for known-good parameters; it panics on error. Intended
// for tests, examples, and package-level defaults.
func MustNew(base power.Config, alpha float64) Solver {
	s, err := New(base, alpha)
	if err != nil {
		panic(err)
	}
	return s
}

// Default returns the paper's canonical solver: the 8-core / 8-CEA balanced
// baseline with α = 0.5.
func Default() Solver {
	return MustNew(power.Baseline(), power.AlphaDefault)
}

// Model exposes the underlying traffic model.
func (s Solver) Model() power.TrafficModel { return s.model }

// Alpha returns the workload sensitivity the solver was built with.
func (s Solver) Alpha() float64 { return s.model.Alpha }

// Base returns the baseline allocation.
func (s Solver) Base() power.Config { return s.model.Base }

// Traffic evaluates M2/M1 for the stack at (n2, p2).
func (s Solver) Traffic(st technique.Stack, n2, p2 float64) float64 {
	return st.Traffic(s.model, n2, p2)
}

// SupportableCores returns the exact (fractional) core count P2 at which
// the technique stack's traffic on an n2-CEA chip equals budget × M1.
// budget is the paper's B: 1 for a constant traffic envelope, 1.5 for the
// optimistic 50%-per-generation growth of §5.1.
func (s Solver) SupportableCores(st technique.Stack, n2, budget float64) (float64, error) {
	return s.SupportableCoresCtx(context.Background(), st, n2, budget)
}

// SupportableCoresCtx is SupportableCores with cancellation propagated
// into the root finder and fault injection at the "scaling.solve" point.
// Domain violations (non-positive areas or budgets, unreachable budgets,
// invalid stacks) wrap robust.ErrDomain; solver failures go through
// numeric.RobustRoot's degradation ladder before being reported.
func (s Solver) SupportableCoresCtx(ctx context.Context, st technique.Stack, n2, budget float64) (float64, error) {
	if err := robust.Hit(ctx, "scaling.solve"); err != nil {
		return 0, err
	}
	if !(n2 > 0) {
		return 0, fmt.Errorf("scaling: chip area n2 must be positive, got %g: %w", n2, robust.ErrDomain)
	}
	if !(budget > 0) {
		return 0, fmt.Errorf("scaling: traffic budget must be positive, got %g: %w", budget, robust.ErrDomain)
	}
	pm := st.Params()
	if err := pm.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %w", err, robust.ErrDomain)
	}
	// Cores fit while on-die cache CEAs stay non-negative: p ≤ pMax, the
	// geometric limit of the processor die.
	pMax := n2 / pm.CoreArea
	f := func(p float64) float64 { return pm.Traffic(s.model, n2, p) - budget }
	lo := pMax * 1e-9
	hi := pMax * (1 - 1e-12)
	if pm.ExtraDie {
		// Traffic stays finite at p == pMax (the extra die still provides
		// cache); the supportable count may exceed the die's CEA count only
		// if cores shrank, which pMax already covers. If even the full die
		// fits the budget, the answer is the geometric limit.
		if f(hi) <= 0 {
			return hi, nil
		}
	}
	flo, fhi := f(lo), f(hi)
	// Shrunk cores put pMax far above n2, and from a shrink of about 1e9
	// even pMax·1e-9 cores exceed the budget. Step the bracket down three
	// decades at a time, hi following lo, to the area floor n2·1e-9; one
	// step at a time keeps each bracket within the root finder's reach.
	for flo > 0 && lo > n2*1e-9 {
		hi, fhi = lo, flo
		lo /= 1e3
		flo = f(lo)
	}
	if flo > 0 {
		// Even a near-zero-core chip exceeds the budget (degenerate: budget
		// below the traffic of an almost-pure-cache chip).
		return 0, fmt.Errorf("scaling: budget %g unreachable on %g CEAs (min traffic %g): %w", budget, n2, flo+budget, robust.ErrDomain)
	}
	if fhi < 0 {
		return hi, nil
	}
	root, err := numeric.RobustRoot(ctx, f, lo, hi, 1e-10)
	if err != nil {
		return 0, fmt.Errorf("scaling: solving cores for %s on %g CEAs: %w", st.Label(), n2, err)
	}
	return root, nil
}

// MaxCores returns the largest whole number of cores whose traffic fits the
// budget: ⌊SupportableCores⌋, clamped to at least 0. This matches how the
// paper reads integer core counts off the model (e.g. "only 11 cores").
func (s Solver) MaxCores(st technique.Stack, n2, budget float64) (int, error) {
	return s.MaxCoresCtx(context.Background(), st, n2, budget)
}

// MaxCoresCtx is MaxCores with cancellation and fault injection (see
// SupportableCoresCtx).
func (s Solver) MaxCoresCtx(ctx context.Context, st technique.Stack, n2, budget float64) (int, error) {
	p, err := s.SupportableCoresCtx(ctx, st, n2, budget)
	if err != nil {
		return 0, err
	}
	return CoresFromExact(p), nil
}

// CoresFromExact converts an exact (fractional) supportable-core solution
// into the whole-core reading the paper uses: ⌊p⌋, with a snap guard
// against floating-point answers like 15.999999999998 when the true fixed
// point is integral (several paper cases are exact). It is the shared
// flooring rule of MaxCores and the scenario engine's cached evaluations.
func CoresFromExact(p float64) int {
	const snap = 1e-6
	if frac := p - math.Floor(p); frac > 1-snap {
		return int(math.Floor(p)) + 1
	}
	return int(math.Floor(p))
}

// CoreAreaFraction returns the fraction of the (processor-die) area used by
// p cores of the stack's core size on an n-CEA chip.
func CoreAreaFraction(st technique.Stack, n, p float64) float64 {
	return st.Params().CoreArea * p / n
}

// ProportionalCores returns the "ideal scaling" core count: the baseline's
// cores multiplied by the area scaling ratio n2/N1.
func (s Solver) ProportionalCores(n2 float64) float64 {
	return s.model.Base.P * n2 / s.model.Base.N()
}
