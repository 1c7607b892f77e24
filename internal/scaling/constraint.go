// Multi-wall constraint solving: the bandwidth envelope generalized into
// an ordered set of walls — bandwidth (the paper's Eq. 6–7), thermal
// (Yavits et al.'s temperature-limited Amdahl formulation for 3D CMPs),
// and energy (a per-access/per-bit account after Shahid et al.) — each
// mapping a candidate core count and technique stack to a feasibility
// margin. A Constraint is solved by tightest-binding intersection: the
// exact core count is the max p, up to the processor die's own
// n2/CoreArea, such that every wall holds, and the solution reports which
// wall (or the die) binds. The served whole count is certified against
// the walls themselves, and each wall's headroom is reported there.
//
// Every wall's usage is strictly increasing in p on its feasible domain
// (more cores draw more power, generate more traffic, and burn more
// energy per unit work), so the intersection is simply the minimum of the
// die and the walls' standalone solutions and binding attribution is
// exact.
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
	// KindDie is no wall: it names the processor die's own limit,
	// n2/CoreArea cores, when it binds before every wall.
	KindDie = "die"
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
	// SolveCores returns the exact max core count under this wall alone
	// for the resolved stack parameters pm. c may be nil (uncached).
	SolveCores(ctx context.Context, c *EvalCache, s Solver, pm technique.Params, n2 float64, gen int) (float64, error)
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
func (w BandwidthWall) SolveCores(ctx context.Context, c *EvalCache, s Solver, pm technique.Params, n2 float64, gen int) (float64, error) {
	return c.SupportableCores(ctx, s, pm, n2, w.LimitAt(gen))
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
func (w ThermalWall) SolveCores(ctx context.Context, c *EvalCache, s Solver, pm technique.Params, n2 float64, gen int) (float64, error) {
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
	if p < math.Min(pMax, n2)*1e-9 {
		return 0, fmt.Errorf("scaling: thermal limit %g unreachable on %g CEAs (cache-area floor density %g): %w",
			limit, n2, gr*fixed/(n2*w.baselineDensity(s)), robust.ErrDomain)
	}
	return math.Min(p, pMax), nil // past the die, thermal does not bind
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
func (w EnergyWall) SolveCores(ctx context.Context, c *EvalCache, s Solver, pm technique.Params, n2 float64, gen int) (float64, error) {
	sh := w.share()
	if !(sh > 0) || sh >= 1 {
		return 0, fmt.Errorf("scaling: energy access share must be in (0,1), got %g: %w", sh, robust.ErrDomain)
	}
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
	p, err := c.SupportableCores(ctx, s, pm, n2, budget)
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

// CertifyEps is the certificate's relative tolerance: a wall holds at p
// cores when its usage there is at most limit·(1+CertifyEps). It is
// sized for float rounding where the model's root is an exact integer
// (DRAM 4x on 32 CEAs solves to 16 cores).
const CertifyEps = 1e-9

// WallHeadroom is one wall's report card at the solved operating point.
type WallHeadroom struct {
	Kind string `json:"kind"`
	// Limit is the wall's ceiling at this generation; Usage its draw at
	// the served whole core count; Headroom is Limit − Usage, never below
	// −Limit·CertifyEps.
	Limit    float64 `json:"limit"`
	Usage    float64 `json:"usage"`
	Headroom float64 `json:"headroom"`
	// Exact is the wall's standalone max core count: how far this wall
	// alone would let the chip scale.
	Exact float64 `json:"exact"`
}

// Solution is a solved constraint. Exact is the intersection's fractional
// core count and Binding the wall it sits on (KindDie when the die binds).
// Cores is the served whole count, certified: the largest integer P ≤
// n2/CoreArea at which every wall's usage ≤ limit·(1+CertifyEps). Walls
// reports each wall's usage and headroom at Cores.
type Solution struct {
	Exact   float64
	Cores   int
	Binding string
	Walls   []WallHeadroom
}

// maxCertifiable is 2^53: past it a float64 no longer holds every
// integer, so a count and its successor cannot both be evaluated.
const maxCertifiable = 1 << 53

// Solve solves the constraint at one (stack, chip, generation) cell for
// the resolved stack parameters pm: the max core count satisfying every
// wall within the processor die, attributed to the tightest wall, or to
// KindDie when no wall's root lies below the die's n2/CoreArea cores, and
// the whole count certified against every wall. cache may be nil
// (uncached inner solves). Only the walls' root finds are memoized (one
// cache event per bandwidth or energy wall); the intersection, the
// certificate and the headroom report are rebuilt on every call, so each
// caller owns its Walls slice.
func (c Constraint) Solve(ctx context.Context, cache *EvalCache, s Solver, pm technique.Params, n2 float64, gen int) (Solution, error) {
	if len(c.walls) == 0 {
		return Solution{}, fmt.Errorf("scaling: constraint has no walls: %w", robust.ErrDomain)
	}
	die := n2 / pm.CoreArea
	sol := Solution{Exact: die, Binding: KindDie, Walls: make([]WallHeadroom, len(c.walls))}
	for i, w := range c.walls {
		p, err := w.SolveCores(ctx, cache, s, pm, n2, gen)
		if err != nil {
			return Solution{}, fmt.Errorf("%s wall: %w", w.Kind(), err)
		}
		sol.Walls[i] = WallHeadroom{Kind: w.Kind(), Limit: w.LimitAt(gen), Exact: p}
		if p < sol.Exact {
			sol.Exact, sol.Binding = p, w.Kind()
		}
	}
	if sol.Exact >= maxCertifiable {
		return Solution{}, fmt.Errorf("scaling: %g cores reach 2^53, where a float64 no longer holds every whole count: %w",
			sol.Exact, robust.ErrDomain)
	}
	// The certificate: the roots are accurate to far better than one
	// core, so ⌊Exact⌋ is off by at most one either way. One step, not a
	// loop: past about 1/CertifyEps cores one core moves a wall's usage by
	// less than the tolerance, and the count stays within a core of the
	// root instead of climbing the tolerance band.
	p := math.Floor(sol.Exact)
	if !c.fits(s, pm, n2, p, gen, sol.Walls, true) {
		p--
		c.fits(s, pm, n2, p, gen, sol.Walls, true)
	} else if p+1 <= die && c.fits(s, pm, n2, p+1, gen, sol.Walls, false) {
		p++
		c.fits(s, pm, n2, p, gen, sol.Walls, true)
	}
	sol.Cores = int(p)
	return sol, nil
}

// fits reports whether every wall holds at p cores: usage ≤
// limit·(1+CertifyEps), with each limit read from walls. With record set
// it stores every wall's usage and headroom at p in walls; without, it
// stops at the first wall that fails.
func (c Constraint) fits(s Solver, pm technique.Params, n2, p float64, gen int, walls []WallHeadroom, record bool) bool {
	ok := true
	for i, w := range c.walls {
		u := w.Usage(s, pm, n2, p, gen)
		if record {
			walls[i].Usage, walls[i].Headroom = u, walls[i].Limit-u
		}
		if !(u <= walls[i].Limit*(1+CertifyEps)) {
			if !record {
				return false
			}
			ok = false
		}
	}
	return ok
}
