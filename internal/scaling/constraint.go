// Multi-wall constraint solving: the bandwidth envelope generalized into
// an ordered set of walls — bandwidth (the paper's Eq. 6–7), thermal
// (Yavits et al.'s temperature-limited Amdahl formulation for 3D CMPs),
// and energy (a per-access/per-bit account after Shahid et al.) — each
// mapping a candidate core count and technique stack to a feasibility
// margin. A Constraint is solved by tightest-binding intersection: the
// supportable core count is the max p such that every wall holds, and the
// solution reports which wall binds plus each wall's headroom at the
// solved point.
//
// Every wall's usage is strictly increasing in p on its feasible domain
// (more cores draw more power, generate more traffic, and burn more
// energy per unit work), so the intersection is simply the minimum of the
// walls' standalone solutions and binding-wall attribution is exact.
package scaling

import (
	"context"
	"fmt"
	"math"

	"repro/internal/robust"
	"repro/internal/technique"
)

// Wall kind names: the spec schema's `envelopes[].kind` values and the
// result schema's `binding_wall` values.
const (
	KindBandwidth = "bandwidth"
	KindThermal   = "thermal"
	KindEnergy    = "energy"
)

// Default wall coefficients. Provenance is documented in EXPERIMENTS.md.
const (
	// DefaultThermalCachePower is κ: per-CEA cache power relative to
	// per-CEA core power at the baseline. Caches dissipate roughly an
	// order of magnitude less power per area than active cores.
	DefaultThermalCachePower = 0.1
	// DefaultEnergyAccessShare is w: the fraction of baseline memory
	// energy spent on cache accesses (the rest is off-chip transfer).
	DefaultEnergyAccessShare = 0.6
)

// Wall is one scaling constraint: a feasibility surface over candidate
// core counts. Usage is strictly increasing in p, so "max cores subject to
// usage ≤ limit" has a unique answer per wall and a Constraint's
// intersection is the minimum across walls.
type Wall interface {
	// Kind is the wall's schema name (bandwidth, thermal, energy).
	Kind() string
	// LimitAt is the wall's ceiling at generation index gen (compounding
	// walls grow it per generation).
	LimitAt(gen int) float64
	// Usage evaluates the wall's relative resource draw at p cores on an
	// n2-CEA chip with the resolved stack parameters pm, at generation
	// gen. Feasible iff Usage ≤ LimitAt(gen).
	Usage(s Solver, pm technique.Params, n2, p float64, gen int) float64
	// SolveCores returns the exact max core count under this wall alone.
	// fp must be FingerprintOf(st); c may be nil (uncached).
	SolveCores(ctx context.Context, c *EvalCache, s Solver, fp Fingerprint, st technique.Stack, n2 float64, gen int) (float64, error)
}

// growthAt resolves a per-generation usage-growth factor: 0 means none.
func growthAt(growth float64, gen int) float64 {
	if growth == 0 || growth == 1 {
		return 1
	}
	return math.Pow(growth, float64(gen))
}

// BandwidthWall is the paper's traffic envelope as a Wall: usage is M2/M1
// (Eq. 5 with technique adjustments) and the limit is the budget B, or
// B^gen with Compound set (§5.1's per-generation envelope growth). Its
// solve is the memoized traffic solver's entry for (stack, chip, budget),
// so bandwidth-only constraints reproduce the single-envelope engine
// exactly, and a repeated cell reads the root from the memo.
type BandwidthWall struct {
	Budget   float64 // B: allowed traffic relative to the baseline's
	Compound bool
}

// Kind implements Wall.
func (BandwidthWall) Kind() string { return KindBandwidth }

// LimitAt implements Wall.
func (w BandwidthWall) LimitAt(gen int) float64 {
	if w.Compound {
		return math.Pow(w.Budget, float64(gen))
	}
	return w.Budget
}

// Usage implements Wall: relative traffic M2/M1.
func (BandwidthWall) Usage(s Solver, pm technique.Params, n2, p float64, gen int) float64 {
	return pm.Traffic(s.model, n2, p)
}

// SolveCores implements Wall via the memoized traffic solver.
func (w BandwidthWall) SolveCores(ctx context.Context, c *EvalCache, s Solver, fp Fingerprint, st technique.Stack, n2 float64, gen int) (float64, error) {
	return c.SupportableCoresFP(ctx, s, fp, st, n2, w.LimitAt(gen))
}

// ThermalWall caps relative power density (junction temperature proxy),
// following Yavits et al.'s temperature-limited Amdahl formulation: chip
// power is core power (1 per core) plus cache power (κ per CEA of cache
// area, times the stack's CachePowerMult), spread over the die area and
// scaled by the stack's thermal resistance (3D stacking raises it — heat
// crosses the stacked die). Usage is density relative to the baseline
// chip's, so a neutral stack at the baseline allocation reads exactly 1.
//
// With constant per-core power, density falls as area grows — thermal
// never binds. The end-of-Dennard Growth factor models per-generation
// power-density growth (voltage no longer scales with feature size); with
// Growth > 1 the thermal cap tightens each generation and eventually
// crosses under the bandwidth cap: the binding-wall flip.
type ThermalWall struct {
	Limit    float64 // allowed power density relative to the baseline chip
	Compound bool    // limit grows as Limit^gen (a relaxing envelope)
	// Growth multiplies usage per generation (end-of-Dennard density
	// growth). 0 means 1 (classic Dennard: no growth).
	Growth float64
	// CachePower is κ: per-CEA cache power relative to per-CEA core
	// power. 0 means DefaultThermalCachePower.
	CachePower float64
}

// Kind implements Wall.
func (ThermalWall) Kind() string { return KindThermal }

// LimitAt implements Wall.
func (w ThermalWall) LimitAt(gen int) float64 {
	if w.Compound {
		return math.Pow(w.Limit, float64(gen))
	}
	return w.Limit
}

func (w ThermalWall) kappa() float64 {
	if w.CachePower == 0 {
		return DefaultThermalCachePower
	}
	return w.CachePower
}

// baselineDensity is θ1: the baseline chip's power density under κ.
func (w ThermalWall) baselineDensity(s Solver) float64 {
	base := s.Base()
	return (base.P + w.kappa()*base.C) / base.N()
}

// cacheArea is the physical cache area in CEAs (density does not change
// dissipating area; a stacked die adds n2 CEAs of cache area).
func cacheArea(pm technique.Params, n2, p float64) float64 {
	a := n2 - pm.CoreArea*p
	if pm.ExtraDie {
		a += n2
	}
	return a
}

// Usage implements Wall: relative power density at p cores.
func (w ThermalWall) Usage(s Solver, pm technique.Params, n2, p float64, gen int) float64 {
	km := w.kappa() * pm.CachePowerMult
	power := p + km*cacheArea(pm, n2, p)
	return growthAt(w.Growth, gen) * pm.ThermalResist * (power / n2) / w.baselineDensity(s)
}

// SolveCores implements Wall. Usage is linear in p, so the solve is closed
// form: no root finding and nothing worth memoizing.
func (w ThermalWall) SolveCores(ctx context.Context, c *EvalCache, s Solver, fp Fingerprint, st technique.Stack, n2 float64, gen int) (float64, error) {
	if err := robust.Hit(ctx, "scaling.solve"); err != nil {
		return 0, err
	}
	if !(n2 > 0) {
		return 0, fmt.Errorf("scaling: chip area n2 must be positive, got %g: %w", n2, robust.ErrDomain)
	}
	limit := w.LimitAt(gen)
	if !(limit > 0) {
		return 0, fmt.Errorf("scaling: thermal limit must be positive, got %g: %w", limit, robust.ErrDomain)
	}
	pm := fp.Params
	if err := pm.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %w", err, robust.ErrDomain)
	}
	km := w.kappa() * pm.CachePowerMult
	// usage(p) = G·R·(p·(1−κm·a) + κm·A0)/(n·θ1): linear in p.
	slope := 1 - km*pm.CoreArea
	if !(slope > 0) {
		return 0, fmt.Errorf("scaling: cache power density %g × core area %g leaves thermal usage non-increasing in cores: %w",
			km, pm.CoreArea, robust.ErrDomain)
	}
	gr := growthAt(w.Growth, gen) * pm.ThermalResist
	fixed := km * cacheArea(pm, n2, 0)
	p := (limit*n2*w.baselineDensity(s)/gr - fixed) / slope
	pMax := n2 / pm.CoreArea
	lo, hi := math.Min(pMax, n2)*1e-9, pMax*(1-1e-12)
	if p < lo {
		return 0, fmt.Errorf("scaling: thermal limit %g unreachable on %g CEAs (cache-area floor density %g): %w",
			limit, n2, gr*fixed/(n2*w.baselineDensity(s)), robust.ErrDomain)
	}
	if p > hi {
		return hi, nil // thermal does not bind within the die's geometry
	}
	return p, nil
}

// EnergyWall caps relative memory-system energy per unit of work: a
// per-access/per-bit account (Shahid et al.). Baseline energy splits into
// an AccessShare fraction w spent on cache accesses and 1−w on off-chip
// transfer; a candidate configuration pays w·CacheEnergyMult for its
// accesses and (1−w)·LinkEnergyMult·M2/M1 for its traffic. Growth models
// per-generation energy-budget pressure the same way ThermalWall does.
//
// Because usage is affine in relative traffic, the solve reduces to a
// traffic solve at an effective budget and reuses the memoized bandwidth
// solver — an energy solve and a bandwidth solve at the same effective
// budget share one cache entry, which is exact (the equations coincide).
type EnergyWall struct {
	Limit    float64 // allowed energy per unit work relative to baseline
	Compound bool
	// Growth multiplies usage per generation. 0 means 1.
	Growth float64
	// AccessShare is w ∈ (0,1): baseline energy share of cache accesses.
	// 0 means DefaultEnergyAccessShare.
	AccessShare float64
}

// Kind implements Wall.
func (EnergyWall) Kind() string { return KindEnergy }

// LimitAt implements Wall.
func (w EnergyWall) LimitAt(gen int) float64 {
	if w.Compound {
		return math.Pow(w.Limit, float64(gen))
	}
	return w.Limit
}

func (w EnergyWall) share() float64 {
	if w.AccessShare == 0 {
		return DefaultEnergyAccessShare
	}
	return w.AccessShare
}

// Usage implements Wall: relative energy per unit work.
func (w EnergyWall) Usage(s Solver, pm technique.Params, n2, p float64, gen int) float64 {
	sh := w.share()
	return growthAt(w.Growth, gen) *
		(sh*pm.CacheEnergyMult + (1-sh)*pm.LinkEnergyMult*pm.Traffic(s.model, n2, p))
}

// SolveCores implements Wall by reduction to an effective traffic budget.
func (w EnergyWall) SolveCores(ctx context.Context, c *EvalCache, s Solver, fp Fingerprint, st technique.Stack, n2 float64, gen int) (float64, error) {
	sh := w.share()
	if !(sh > 0) || sh >= 1 {
		return 0, fmt.Errorf("scaling: energy access share must be in (0,1), got %g: %w", sh, robust.ErrDomain)
	}
	pm := fp.Params
	if err := pm.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %w", err, robust.ErrDomain)
	}
	limit := w.LimitAt(gen) / growthAt(w.Growth, gen)
	floor := sh * pm.CacheEnergyMult
	budget := (limit - floor) / ((1 - sh) * pm.LinkEnergyMult)
	if !(budget > 0) {
		return 0, fmt.Errorf("scaling: energy limit %g is below the cache-access floor %g on %g CEAs: %w",
			w.LimitAt(gen), growthAt(w.Growth, gen)*floor, n2, robust.ErrDomain)
	}
	p, err := c.SupportableCoresFP(ctx, s, fp, st, n2, budget)
	if err != nil {
		return 0, fmt.Errorf("scaling: energy wall at effective traffic budget %g: %w", budget, err)
	}
	return p, nil
}

// Constraint is an ordered set of walls solved by tightest-binding
// intersection. The zero value has no walls and cannot be solved; build
// one with NewConstraint.
type Constraint struct {
	walls []Wall
}

// NewConstraint builds a constraint from the given walls, in order. Order
// affects reporting (ties bind to the earliest wall) but not the solution.
func NewConstraint(ws ...Wall) Constraint {
	cp := make([]Wall, len(ws))
	copy(cp, ws)
	return Constraint{walls: cp}
}

// Bandwidth returns a single-wall constraint equivalent to the legacy
// budget envelope.
func Bandwidth(budget float64, compound bool) Constraint {
	return NewConstraint(BandwidthWall{Budget: budget, Compound: compound})
}

// WallHeadroom is one wall's report card at the solved operating point.
type WallHeadroom struct {
	Kind string `json:"kind"`
	// Limit is the wall's ceiling at this generation; Usage its draw at
	// the constraint's solved core count; Headroom is Limit − Usage
	// (zero, up to solver tolerance, for the binding wall).
	Limit    float64 `json:"limit"`
	Usage    float64 `json:"usage"`
	Headroom float64 `json:"headroom"`
	// Exact is the wall's standalone max core count: how far this wall
	// alone would let the chip scale.
	Exact float64 `json:"exact"`
}

// Solution is a solved constraint: the intersection core count, which wall
// binds, and every wall's headroom at that point.
type Solution struct {
	Exact   float64
	Binding string
	Walls   []WallHeadroom
}

// SolveFP solves the constraint at one (stack, chip, generation) cell: the
// max core count satisfying every wall, attributed to the tightest wall.
// fp must be FingerprintOf(st); cache may be nil (uncached inner solves).
// Only the walls' root finds are memoized (one cache event per bandwidth
// or energy wall); the intersection and the headroom report are rebuilt
// on every call, so each caller owns its Walls slice.
func (c Constraint) SolveFP(ctx context.Context, cache *EvalCache, s Solver, fp Fingerprint, st technique.Stack, n2 float64, gen int) (Solution, error) {
	if len(c.walls) == 0 {
		return Solution{}, fmt.Errorf("scaling: constraint has no walls: %w", robust.ErrDomain)
	}
	sol := Solution{Exact: math.Inf(1), Walls: make([]WallHeadroom, len(c.walls))}
	for i, w := range c.walls {
		p, err := w.SolveCores(ctx, cache, s, fp, st, n2, gen)
		if err != nil {
			return Solution{}, fmt.Errorf("%s wall: %w", w.Kind(), err)
		}
		sol.Walls[i] = WallHeadroom{Kind: w.Kind(), Limit: w.LimitAt(gen), Exact: p}
		if p < sol.Exact {
			sol.Exact, sol.Binding = p, w.Kind()
		}
	}
	pm := fp.Params
	for i, w := range c.walls {
		u := w.Usage(s, pm, n2, sol.Exact, gen)
		sol.Walls[i].Usage = u
		sol.Walls[i].Headroom = sol.Walls[i].Limit - u
	}
	return sol, nil
}
