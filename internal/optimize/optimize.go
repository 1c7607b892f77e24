// Package optimize answers the inverse design-space query: given a chip
// area, a wall envelope set, and a catalog of candidate techniques with
// costs, which technique stack and S=C/P area split maximize supportable
// cores? It enumerates the catalog's power set under compatibility rules
// (exclusion groups: at most one entry per group, e.g. one DRAM variant),
// crosses each eligible stack with a swept cache-per-core split, evaluates
// every stack through the memoized multi-wall solver — one
// SolveConstraintFP call per stack, shared across all of its split points
// — and reports the single best design plus the objective-vs-cost Pareto
// frontier with per-point binding-wall attribution.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/scenario"
	"repro/internal/technique"
)

// BindingSplit is the Binding value of a design point pinned by the split
// geometry rather than a wall: at its split the chip runs out of area
// before any wall binds.
const BindingSplit = "split"

// DesignPoint is one evaluated (stack, split) candidate.
type DesignPoint struct {
	// Stack lists the catalog entries the candidate combines, in catalog
	// order. Empty means BASE.
	Stack []technique.Spec `json:"stack,omitempty"`
	// Label is the stack's display label ("CC/LC + DRAM", "BASE", ...).
	Label string `json:"label"`
	// Split is the S=C/P cache-per-core allocation in CEAs.
	Split float64 `json:"split"`
	// Cost is the stack's summed catalog cost.
	Cost float64 `json:"cost"`
	// Cores is the supportable whole-core count; Exact the fractional
	// solution it is read from.
	Cores int     `json:"cores"`
	Exact float64 `json:"exact"`
	// Binding names what pins this point: a wall kind when the constraint
	// binds below the split's geometric core count, else "split".
	Binding string `json:"binding"`
	// Walls reports each wall's limit/usage/headroom at the stack's
	// wall-bound solution (shared across the stack's split points).
	Walls []scaling.WallHeadroom `json:"walls,omitempty"`

	ord int // enumeration index, for deterministic tie-breaking
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
	// Points holds every enumerated candidate in deterministic
	// (stack, split) order — the exhaustive grid the frontier is drawn
	// from.
	Points []DesignPoint `json:"-"`
	// Stacks counts eligible stacks; Candidates the (stack, split) pairs.
	Stacks     int `json:"stacks"`
	Candidates int `json:"candidates"`
	// CacheHits/CacheMisses report the search's solver-cache traffic.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
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

// Search evaluates the full (stack × split) grid and returns the best
// design and Pareto frontier. Stacks are evaluated concurrently by a
// bounded worker pool with per-chunk cancellation checks and contained
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
	splits := osp.SplitPoints()

	cache := o.Cache
	if cache == nil {
		cache = scaling.NewEvalCache()
	}
	startHits, startMisses := cache.Stats()
	evaluated := obs.Default().Counter("optimize.candidates")

	points := make([]DesignPoint, len(stacks)*len(splits))
	errs := make([]error, len(stacks))
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(stacks) {
		workers = len(stacks)
	}

	// solveStack contains panics (fault injection reaches the solver
	// through the scaling.solve hook), mirroring the scenario engine.
	solveStack := func(fp scaling.Fingerprint, st technique.Stack) (sol scaling.Solution, err error) {
		defer robust.Recover(&err)
		return cache.SolveConstraintFP(ctx, solver, fp, st, osp.N2, cons, 1)
	}

	// Each stack needs exactly one wall solve; its split points reuse it.
	evalStack := func(si int) error {
		sc := stacks[si]
		st, err := technique.BuildStack(sc.specs)
		if err != nil {
			return fmt.Errorf("optimize %s: stack %v: %w", osp.ID, sc.specs, err)
		}
		fp := scaling.FingerprintOf(st)
		sol, err := solveStack(fp, st)
		if err != nil {
			return fmt.Errorf("optimize %s: stack %q: %w", osp.ID, st.Label(), err)
		}
		evaluated.Inc()
		label := st.Label()
		for pi, s := range splits {
			// At split s the chip fits n2/(coreArea+s) cores, each with s
			// CEAs of cache; the wall solve caps cores independently of the
			// split (it already allocates all residual area to cache), so
			// the supportable count is the smaller of the two.
			pGeom := osp.N2 / (fp.Params.CoreArea + s)
			exact := pGeom
			binding := BindingSplit
			if sol.Exact < pGeom {
				exact = sol.Exact
				binding = sol.Binding
			}
			idx := si*len(splits) + pi
			points[idx] = DesignPoint{
				Stack:   sc.specs,
				Label:   label,
				Split:   s,
				Cost:    sc.cost,
				Cores:   scaling.CoresFromExact(exact),
				Exact:   exact,
				Binding: binding,
				Walls:   sol.Walls,
				ord:     idx,
			}
		}
		return nil
	}

	chunk := len(stacks) / (workers * 4)
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
				if err := robust.Err(ctx); err != nil {
					errs[start] = err
					continue
				}
				end := start + chunk
				if end > len(stacks) {
					end = len(stacks)
				}
				for si := start; si < end; si++ {
					errs[si] = evalStack(si)
				}
			}
		}()
	}
	for start := 0; start < len(stacks); start += chunk {
		starts <- start
	}
	close(starts)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
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
	hits, misses := cache.Stats()
	res.CacheHits, res.CacheMisses = hits-startHits, misses-startMisses
	return res, nil
}
