package scaling

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/technique"
)

// The memoized solver-evaluation cache behind the scenario engine's batch
// queries. Repeated sweeps evaluate the same (stack, chip, budget) triple
// over and over — Fig 15's candles alone solve the BASE configuration four
// times, and a user batch of what-if specs repeats stacks constantly — so
// the engine funnels every solve through an EvalCache.
//
// The key is the canonical stack fingerprint: the stack's RESOLVED
// technique.Params. Resolution is order-independent and collapses any
// spelling of a stack ("CC=2 + LC=2" vs "CC/LC=2") with identical model
// effect onto one entry, so the cache is exactly as sharp as the math.
// Alongside the fingerprint the key carries everything else that
// determines the root: the baseline allocation, α, the chip area, and the
// traffic budget.

// Fingerprint is the canonical identity of a technique stack for solver
// memoization: its resolved parameter set. Two stacks with equal
// Fingerprints produce identical traffic curves and therefore identical
// solver answers.
type Fingerprint struct {
	Params technique.Params
}

// FingerprintOf resolves a stack to its canonical fingerprint.
func FingerprintOf(st technique.Stack) Fingerprint {
	return Fingerprint{Params: st.Params()}
}

// FNV-1a parameters shared by the repo's fingerprint hashes: HashString
// below and the constraint-set fingerprints in constraint.go.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashString is FNV-1a over s with the high bits folded down. It is
// deterministic across processes, so every fleet gateway that ranks
// replicas for one canonical spec fingerprint ranks them the same way.
func HashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h ^ h>>32
}

// cacheKey is one memoized solver evaluation.
type cacheKey struct {
	fp     Fingerprint
	baseP  float64
	baseC  float64
	alpha  float64
	n2     float64
	budget float64
}

// evalEntry is one memoized solve with its per-entry hit count (the
// introspection endpoint's top-N ranking reads it).
type evalEntry struct {
	val  float64
	hits atomic.Uint64
}

// solKey is one memoized constraint solution: the wall-level cacheKey
// minus the budget (each wall resolves its own), plus the fingerprint of
// the full constraint set and the generation index (compounding and
// growth factors make solutions generation-dependent).
type solKey struct {
	fp    Fingerprint
	baseP float64
	baseC float64
	alpha float64
	n2    float64
	cons  uint64
	gen   int
}

// EvalCache memoizes successful SupportableCores evaluations. It is safe
// for concurrent use by the engine's worker pool. Errors are never cached:
// domain violations fail fast before any root finding, and injected or
// transient faults must not poison later retries. Wall solves and
// constraint solutions live in two maps, each behind its own RWMutex, so
// a hit costs one read lock.
type EvalCache struct {
	mu    sync.RWMutex
	evals map[cacheKey]*evalEntry

	solMu sync.RWMutex
	sols  map[solKey]Solution

	hits   atomic.Uint64
	misses atomic.Uint64

	obsHits   *obs.Counter
	obsMisses *obs.Counter
}

// NewEvalCache returns an empty cache wired to the process obs registry
// (scaling.cache.hits / scaling.cache.misses count across all solves).
func NewEvalCache() *EvalCache {
	return &EvalCache{
		evals:     make(map[cacheKey]*evalEntry),
		sols:      make(map[solKey]Solution),
		obsHits:   obs.Default().Counter("scaling.cache.hits"),
		obsMisses: obs.Default().Counter("scaling.cache.misses"),
	}
}

// key builds the full memoization key for a solve on s.
func (c *EvalCache) key(s Solver, fp Fingerprint, n2, budget float64) cacheKey {
	base := s.Base()
	return cacheKey{fp: fp, baseP: base.P, baseC: base.C, alpha: s.Alpha(), n2: n2, budget: budget}
}

// SupportableCoresFP is Solver.SupportableCoresCtx memoized on the
// canonical stack fingerprint, which the caller precomputes: batch
// evaluators resolving the same stack at many axis points fingerprint it
// once instead of per cell (resolving Params dominates a cache hit
// otherwise). fp must be FingerprintOf(st). A nil receiver degrades to
// the uncached solver call.
func (c *EvalCache) SupportableCoresFP(ctx context.Context, s Solver, fp Fingerprint, st technique.Stack, n2, budget float64) (float64, error) {
	if c == nil {
		return s.SupportableCoresCtx(ctx, st, n2, budget)
	}
	k := c.key(s, fp, n2, budget)
	c.mu.RLock()
	e, ok := c.evals[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		c.obsHits.Inc()
		e.hits.Add(1)
		return e.val, nil
	}
	c.misses.Add(1)
	c.obsMisses.Inc()
	// An actual solve is the stage worth attributing in a request trace;
	// cache hits return in well under a microsecond and stay unrecorded.
	sctx, tsp := obs.StartTraceSpan(ctx, "scaling.solve")
	v, err := s.SupportableCoresCtx(sctx, st, n2, budget)
	tsp.End()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if prev, ok := c.evals[k]; ok {
		v = prev.val // concurrent solvers: keep the first answer (they agree)
	} else {
		c.evals[k] = &evalEntry{val: v}
	}
	c.mu.Unlock()
	return v, nil
}

// SolveConstraintFP is Constraint.SolveFP memoized on (stack fingerprint,
// baseline, α, chip, constraint fingerprint, generation). The memo sits
// above the per-wall solver cache: a solution hit skips every wall, a miss
// delegates to the walls (whose own traffic solves still share wall-level
// entries — an energy wall and a bandwidth wall at the same effective
// budget memoize once). Counters record exactly one event per call at the
// outermost level that answered, so legacy single-wall evaluations keep
// their historical hit/miss accounting. Errors are never cached.
func (c *EvalCache) SolveConstraintFP(ctx context.Context, s Solver, fp Fingerprint, st technique.Stack, n2 float64, cons Constraint, gen int) (Solution, error) {
	if c == nil {
		return cons.SolveFP(ctx, nil, s, fp, st, n2, gen)
	}
	base := s.Base()
	k := solKey{fp: fp, baseP: base.P, baseC: base.C, alpha: s.Alpha(), n2: n2, cons: cons.Fingerprint(), gen: gen}
	c.solMu.RLock()
	sol, ok := c.sols[k]
	c.solMu.RUnlock()
	if ok {
		c.hits.Add(1)
		c.obsHits.Inc()
		return sol.copyWalls(), nil
	}
	sol, err := cons.SolveFP(ctx, c, s, fp, st, n2, gen)
	if err != nil {
		return Solution{}, err
	}
	c.solMu.Lock()
	if prev, ok := c.sols[k]; ok {
		sol = prev // concurrent solvers: keep the first answer (they agree)
	} else {
		c.sols[k] = sol
	}
	c.solMu.Unlock()
	return sol.copyWalls(), nil
}

// copyWalls returns the solution with a private headroom slice, so cached
// solutions cannot be mutated through a caller's copy.
func (sol Solution) copyWalls() Solution {
	cp := make([]WallHeadroom, len(sol.Walls))
	copy(cp, sol.Walls)
	sol.Walls = cp
	return sol
}

// Stats returns the cache's hit and miss counts.
func (c *EvalCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Purge drops every memoized evaluation and returns how many were held.
// Hit/miss counters are preserved — they describe lifetime traffic, not
// current contents.
func (c *EvalCache) Purge() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := len(c.evals)
	c.evals = make(map[cacheKey]*evalEntry)
	c.mu.Unlock()
	c.solMu.Lock()
	n += len(c.sols)
	c.sols = make(map[solKey]Solution)
	c.solMu.Unlock()
	return n
}

// StackInfo aggregates the cache's view of one technique-stack
// fingerprint: how many distinct (chip, α, budget) keys share it and
// their combined hit count.
type StackInfo struct {
	Stack   string `json:"stack"`   // resolved technique.Params, display form
	Entries int    `json:"entries"` // distinct solver keys under this stack
	Hits    uint64 `json:"hits"`
}

// Info summarizes the cache for introspection endpoints.
type Info struct {
	Entries     int         `json:"entries"`
	Hits        uint64      `json:"hits"`
	Misses      uint64      `json:"misses"`
	ApproxBytes uint64      `json:"approx_bytes"`
	Top         []StackInfo `json:"top,omitempty"` // hottest stacks, by hits
}

// Info reports occupancy, lifetime traffic, an approximate byte
// footprint, and the topN hottest stack fingerprints (Yavits-style
// measured-occupancy numbers for cache sizing). topN ≤ 0 omits the
// ranking.
func (c *EvalCache) Info(topN int) Info {
	if c == nil {
		return Info{}
	}
	const entryBytes = uint64(unsafe.Sizeof(cacheKey{})+unsafe.Sizeof(evalEntry{})) + 8 // key + entry + pointer
	info := Info{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
	}
	var agg map[technique.Params]*StackInfo
	if topN > 0 {
		agg = make(map[technique.Params]*StackInfo)
	}
	c.mu.RLock()
	info.Entries = len(c.evals)
	if topN > 0 {
		for k, e := range c.evals {
			si := agg[k.fp.Params]
			if si == nil {
				si = &StackInfo{Stack: fmt.Sprintf("%+v", k.fp.Params)}
				agg[k.fp.Params] = si
			}
			si.Entries++
			si.Hits += e.hits.Load()
		}
	}
	c.mu.RUnlock()
	info.ApproxBytes = uint64(info.Entries) * entryBytes
	if topN > 0 {
		top := make([]StackInfo, 0, len(agg))
		for _, si := range agg {
			top = append(top, *si)
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].Hits != top[j].Hits {
				return top[i].Hits > top[j].Hits
			}
			return top[i].Stack < top[j].Stack
		})
		if len(top) > topN {
			top = top[:topN]
		}
		info.Top = top
	}
	return info
}
