// Package optimize answers the inverse design-space query: given a chip
// area, a wall envelope set, and a catalog of candidate techniques with
// costs, which technique stack maximizes supportable cores? It enumerates
// the catalog's power set under compatibility rules (exclusion groups: at
// most one entry per group, e.g. one DRAM variant), evaluates each
// eligible stack through the multi-wall solver — one Constraint.Solve
// call per stack, whose wall root finds come from the shared solver memo —
// and reports the single best design plus the objective-vs-cost Pareto
// frontier with per-point binding-wall attribution. Each design point is
// exactly what eval reports for its stack on the same chip and walls; the
// S=C/P core/cache split is read off the solution, not searched.
package optimize

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/scenario"
	"repro/internal/technique"
)

// DesignPoint is one evaluated stack.
type DesignPoint struct {
	// Stack lists the catalog entries the candidate combines, in catalog
	// order. Empty means BASE.
	Stack []technique.Spec `json:"stack,omitempty"`
	// Label is the stack's display label ("CC/LC + DRAM", "BASE", ...).
	Label string `json:"label"`
	// Split is the S=C/P split the solution implies: the CEAs of on-die
	// cache per core, (n2 − CoreArea·Exact)/Exact. A 3D stack's stacked
	// die is not counted in it.
	Split float64 `json:"split"`
	// Cost is the stack's summed catalog cost.
	Cost float64 `json:"cost"`
	// Cores is the certified whole-core count every wall allows; Exact
	// the fractional solution.
	Cores int     `json:"cores"`
	Exact float64 `json:"exact"`
	// Binding names the wall that pins this point, or "die"; Walls reports each
	// wall's limit/usage/headroom at Cores.
	Binding string                 `json:"binding"`
	Walls   []scaling.WallHeadroom `json:"walls,omitempty"`
}

// Result is one completed search.
type Result struct {
	// Spec is the evaluated query.
	Spec *scenario.OptimizeSpec `json:"-"`
	// Objective is the resolved objective name.
	Objective string `json:"objective"`
	// Best is the maximal design: highest objective value, ties broken
	// toward lower cost, then earlier enumeration order (simpler stacks).
	Best DesignPoint `json:"best"`
	// Frontier is the objective-vs-cost Pareto frontier in ascending cost
	// (and therefore strictly ascending objective) order.
	Frontier []DesignPoint `json:"frontier"`
	// Points holds one design point per eligible stack, in enumeration
	// order — the candidates the frontier is drawn from.
	Points []DesignPoint `json:"-"`
	// Stacks counts eligible stacks. Candidates equals Stacks: each stack
	// is one candidate.
	Stacks     int `json:"stacks"`
	Candidates int `json:"candidates"`
}

// Optimizer runs searches through a memoized solver cache with a bounded
// worker pool. The zero value is usable (fresh cache per Search call);
// New returns one whose cache persists across calls, so repeated stacks —
// across searches or with the serve tier's engine — only ever solve once.
type Optimizer struct {
	// Workers bounds solver concurrency; ≤0 means GOMAXPROCS.
	Workers int
	// Cache memoizes wall solves. Nil means a fresh cache per call.
	Cache *scaling.EvalCache
}

// New returns an optimizer with a persistent evaluation cache.
func New() *Optimizer {
	return &Optimizer{Cache: scaling.NewEvalCache()}
}

// NewWithCache returns an optimizer sharing an existing cache (the serve
// tier passes its engine's, so optimize and eval queries warm each other).
func NewWithCache(c *scaling.EvalCache) *Optimizer {
	return &Optimizer{Cache: c}
}

// stackCand is one eligible subset of the catalog.
type stackCand struct {
	mask  uint32
	specs []technique.Spec
	cost  float64
}

// enumerateStacks expands the catalog power set under the compatibility
// rules: group-disjoint entries only, at most MaxTechniques members, at
// most MaxCost summed cost. Order is deterministic — by stack size, then
// by catalog-index bitmask — so results and reports are stable.
func enumerateStacks(osp *scenario.OptimizeSpec) []stackCand {
	n := len(osp.Catalog)
	costs := make([]float64, n)
	groups := make([][]string, n)
	for i, e := range osp.Catalog {
		costs[i] = e.Cost
		groups[i] = e.Groups()
	}
	// Pairwise conflict matrix: entries sharing any exclusion group.
	conflict := make([]uint32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if groupsOverlap(groups[i], groups[j]) {
				conflict[i] |= 1 << j
				conflict[j] |= 1 << i
			}
		}
	}
	var out []stackCand
	for mask := uint32(0); mask < 1<<n; mask++ {
		size := bits.OnesCount32(mask)
		if osp.MaxTechniques > 0 && size > osp.MaxTechniques {
			continue
		}
		ok := true
		cost := 0.0
		var specs []technique.Spec
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			if conflict[i]&mask != 0 {
				ok = false
				break
			}
			cost += costs[i]
			specs = append(specs, osp.Catalog[i].Spec())
		}
		if !ok || (osp.MaxCost > 0 && cost > osp.MaxCost) {
			continue
		}
		out = append(out, stackCand{mask: mask, specs: specs, cost: cost})
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := bits.OnesCount32(out[i].mask), bits.OnesCount32(out[j].mask)
		if si != sj {
			return si < sj
		}
		return out[i].mask < out[j].mask
	})
	return out
}

func groupsOverlap(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// Search evaluates every eligible stack and returns the best design and
// Pareto frontier. Stacks are evaluated concurrently by robust.Each
// (chunks of stacks, a cancellation check per chunk) with contained
// panics; candidate ordering in the result is independent of scheduling.
func (o *Optimizer) Search(ctx context.Context, osp *scenario.OptimizeSpec) (*Result, error) {
	ctx, tspan := obs.StartTraceSpan(ctx, "optimize.search")
	defer tspan.End()
	if err := robust.Err(ctx); err != nil {
		return nil, err
	}
	if err := osp.Validate(); err != nil {
		return nil, err
	}

	base := osp.BaselineConfig()
	alpha := osp.AlphaResolved()
	solver, err := scaling.New(base, alpha)
	if err != nil {
		return nil, fmt.Errorf("optimize %s: α=%g: %w", osp.ID, alpha, err)
	}
	cons := osp.Constraint()
	stacks := enumerateStacks(osp)

	cache := o.Cache
	if cache == nil {
		cache = scaling.NewEvalCache()
	}
	evaluated := obs.Default().Counter("optimize.candidates")

	points := make([]DesignPoint, len(stacks))

	// solveStack contains panics (fault injection reaches the solver
	// through the scaling.solve hook), mirroring the scenario engine.
	solveStack := func(pm technique.Params) (sol scaling.Solution, err error) {
		defer robust.Recover(&err)
		return cons.Solve(ctx, cache, solver, pm, osp.N2, 1)
	}

	evalStack := func(si int) error {
		sc := stacks[si]
		st, err := technique.BuildStack(sc.specs)
		if err != nil {
			return fmt.Errorf("optimize %s: stack %v: %w", osp.ID, sc.specs, err)
		}
		pm := st.Params()
		sol, err := solveStack(pm)
		if err != nil {
			return fmt.Errorf("optimize %s: stack %q: %w", osp.ID, st.Label(), err)
		}
		evaluated.Inc()
		points[si] = DesignPoint{
			Stack:   sc.specs,
			Label:   st.Label(),
			Split:   (osp.N2 - pm.CoreArea*sol.Exact) / sol.Exact,
			Cost:    sc.cost,
			Cores:   sol.Cores,
			Exact:   sol.Exact,
			Binding: sol.Binding,
			Walls:   sol.Walls,
		}
		return nil
	}

	if err := robust.Each(ctx, len(stacks), o.Workers, evalStack); err != nil {
		return nil, err
	}

	objective := osp.ObjectiveResolved()
	res := &Result{
		Spec:       osp,
		Objective:  objective,
		Frontier:   frontier(points, objective),
		Points:     points,
		Stacks:     len(stacks),
		Candidates: len(points),
	}
	res.Best = res.Frontier[len(res.Frontier)-1]
	return res, nil
}
