package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/technique"
)

// Point is one solved (case, axis) cell of a scenario.
type Point struct {
	Case int // index into Spec.Cases
	Axis int // index into the expanded axis
	Gen  scaling.Generation
	// Alpha and Budget are the resolved solver inputs for this cell (after
	// case overrides and envelope compounding). Budget is the bandwidth
	// wall's limit at this cell; 0 when the constraint set has no
	// bandwidth wall.
	Alpha  float64
	Budget float64
	// Exact is Eq. 7's fractional solution; Cores its whole-core reading.
	Exact float64
	Cores int
	// AreaFraction is the processor-die share the exact solution occupies;
	// Proportional the ideal-scaling core count for reference.
	AreaFraction float64
	Proportional float64
	// Binding names the wall that limits this cell ("bandwidth" for
	// legacy single-envelope specs); Walls reports each wall's limit,
	// usage, and headroom at the solved core count.
	Binding string
	Walls   []scaling.WallHeadroom
}

// Outcome is a fully evaluated scenario.
type Outcome struct {
	Spec *Spec
	// Gens is the expanded axis.
	Gens []scaling.Generation
	// Points holds one entry per (case, axis) pair in case-major order:
	// Points[c*len(Gens)+a].
	Points []Point
	// Values are the headline numbers harvested from cases with a ValueKey,
	// under the figure drivers' key conventions.
	Values map[string]float64
	// CacheHits/CacheMisses report the evaluation's solver-cache traffic.
	CacheHits, CacheMisses uint64
}

// PointsFor returns the axis row of one case.
func (o *Outcome) PointsFor(caseIdx int) []Point {
	n := len(o.Gens)
	return o.Points[caseIdx*n : (caseIdx+1)*n]
}

// Engine evaluates scenario specs through a memoized solver cache with a
// bounded worker pool. The zero value is usable (it allocates a private
// cache per Evaluate call); NewEngine returns an engine whose cache
// persists across calls so repeated stacks in a batch only ever solve once.
type Engine struct {
	// Workers bounds solver concurrency; ≤0 means GOMAXPROCS.
	Workers int
	// Cache memoizes solver evaluations across Evaluate calls. Nil means a
	// fresh cache per call.
	Cache *scaling.EvalCache
}

// NewEngine returns an engine with a persistent evaluation cache.
func NewEngine() *Engine {
	return &Engine{Cache: scaling.NewEvalCache()}
}

// Evaluate solves every (case, axis) cell of the spec. Cells are evaluated
// concurrently by a fixed worker pool (the exp suite-runner pattern: an
// index channel drained by Workers goroutines, context cancellation
// checked per cell, failures joined in cell order). All cells are
// attempted even when some fail, so one degenerate case cannot hide the
// others' results; any failure makes Evaluate return the joined error.
func (e *Engine) Evaluate(ctx context.Context, sp *Spec) (*Outcome, error) {
	// Request-scoped tracing: when the context carries an obs.Trace (the
	// serve tier installs one per request), the whole evaluation becomes a
	// stage span, and the workers' ctx parents each real solve under it.
	ctx, tspan := obs.StartTraceSpan(ctx, "scenario.eval")
	defer tspan.End()
	if err := robust.Err(ctx); err != nil {
		return nil, err
	}
	// Structural validation only; the caseEnv loop below builds each stack
	// exactly once and surfaces the same domain errors Validate would.
	if err := sp.validateStructure(); err != nil {
		return nil, err
	}

	base := sp.baseline()
	gens := sp.axisGens(base.N())
	if len(gens) == 0 {
		return nil, errf("%s: axis expands to zero points", sp.ID)
	}

	// Resolve one solver per distinct α (Fig 17 sweeps α across cases).
	solvers := map[float64]scaling.Solver{}
	solverFor := func(alpha float64) (scaling.Solver, error) {
		if s, ok := solvers[alpha]; ok {
			return s, nil
		}
		s, err := scaling.New(base, alpha)
		if err != nil {
			return scaling.Solver{}, fmt.Errorf("scenario %s: α=%g: %w", sp.ID, alpha, err)
		}
		solvers[alpha] = s
		return s, nil
	}

	// Resolve stacks and per-case constants up front, before spawning work.
	type caseEnv struct {
		stack  technique.Stack
		fp     scaling.Fingerprint // precomputed: fingerprinting per cell would dominate cache hits
		solver scaling.Solver
		alpha  float64
		cons   scaling.Constraint
	}
	envs := make([]caseEnv, len(sp.Cases))
	for i, c := range sp.Cases {
		st, err := c.BuildStack()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: case %d (%s): %w", sp.ID, i, c.label(), err)
		}
		alpha := c.Alpha
		if alpha == 0 {
			alpha = sp.alpha()
		}
		s, err := solverFor(alpha)
		if err != nil {
			return nil, err
		}
		envs[i] = caseEnv{stack: st, fp: scaling.FingerprintOf(st), solver: s, alpha: alpha, cons: sp.constraintFor(c)}
	}

	cache := e.Cache
	if cache == nil {
		cache = scaling.NewEvalCache()
	}
	startHits, startMisses := cache.Stats()

	points := make([]Point, len(sp.Cases)*len(gens))
	errs := make([]error, len(points))
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	evaluated := obs.Default().Counter("scenario.points")

	// solveCell contains panics (fault injection reaches the solver through
	// the scaling.solve hook) so a poisoned cell fails like any other error
	// instead of escaping the worker goroutine and killing the process.
	solveCell := func(env caseEnv, n2 float64, gen int) (sol scaling.Solution, err error) {
		defer robust.Recover(&err)
		return cache.SolveConstraintFP(ctx, env.solver, env.fp, env.stack, n2, env.cons, gen)
	}

	// Cells are handed out in chunks (several cells per channel receive)
	// rather than one at a time: warm evaluations resolve almost every cell
	// from the cache in well under a microsecond, so per-cell channel
	// traffic would dominate the batch.
	chunk := len(points) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	starts := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for start := range starts {
				end := start + chunk
				if end > len(points) {
					end = len(points)
				}
				for i := start; i < end; i++ {
					ci, ai := i/len(gens), i%len(gens)
					env, g := envs[ci], gens[ai]
					sol, err := solveCell(env, g.N, g.Index)
					if err != nil {
						errs[i] = fmt.Errorf("scenario %s: case %q @ %s: %w", sp.ID, sp.Cases[ci].label(), g, err)
						continue
					}
					evaluated.Inc()
					budget := 0.0
					for _, wh := range sol.Walls {
						if wh.Kind == scaling.KindBandwidth {
							budget = wh.Limit
						}
					}
					points[i] = Point{
						Case: ci, Axis: ai, Gen: g,
						Alpha: env.alpha, Budget: budget,
						Exact: sol.Exact, Cores: scaling.CoresFromExact(sol.Exact),
						// CoreAreaFraction from the precomputed Params.
						AreaFraction: env.fp.Params.CoreArea * sol.Exact / g.N,
						Proportional: env.solver.ProportionalCores(g.N),
						Binding:      sol.Binding,
						Walls:        sol.Walls,
					}
				}
			}
		}()
	}
	for start := 0; start < len(points); start += chunk {
		starts <- start
	}
	close(starts)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	out := &Outcome{Spec: sp, Gens: gens, Points: points, Values: map[string]float64{}}
	hits, misses := cache.Stats()
	out.CacheHits, out.CacheMisses = hits-startHits, misses-startMisses
	for ci, c := range sp.Cases {
		if c.ValueKey == "" {
			continue
		}
		row := out.PointsFor(ci)
		if len(gens) == 1 {
			out.Values[c.ValueKey] = float64(row[0].Cores)
			continue
		}
		for _, pt := range row {
			out.Values[GenKey(c.ValueKey, pt.Gen.Ratio)] = float64(pt.Cores)
		}
	}
	return out, nil
}
