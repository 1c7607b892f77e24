package scaling

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
//
// The map is sharded by the low bits of the fingerprint's hash: each
// shard owns its own lock and map segment, so the serve tier's worker
// pool doing mixed-stack batch queries no longer serializes every lookup
// on one RWMutex (a single reader-count cache line bouncing between
// cores is contention even when every request is a hit). Entries with
// equal fingerprints land in the same shard; introspection (Info, Purge)
// aggregates across shards.

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

// FNV-1a parameters shared by every fingerprint-keyed shard layout in
// the repo: the solver cache below, the serve tier's response LRU, and
// the fleet gateway's replica ring all key off the same function, so
// "which shard/replica owns this fingerprint" has one answer at every
// level of the system.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashString is FNV-1a over s with the high bits folded down — the
// string-keyed twin of Fingerprint.hash. It is the routing function for
// anything keyed by a canonical spec fingerprint: deterministic across
// processes, so a replica ring and a lock-shard array computed from the
// same fingerprint agree forever.
func HashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h ^ h>>32
}

// hash folds the fingerprint's resolved parameters through FNV-1a over
// their bit patterns. Deterministic across processes (the shard layout is
// reproducible) and cheap enough to vanish next to a map probe.
func (fp Fingerprint) hash() uint64 {
	const (
		offset = fnvOffset
		prime  = fnvPrime
	)
	p := fp.Params
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(math.Float64bits(p.DieDensity))
	if p.ExtraDie {
		mix(1)
	} else {
		mix(2)
	}
	mix(math.Float64bits(p.ExtraDieDensity))
	mix(math.Float64bits(p.CacheMult))
	mix(math.Float64bits(p.TrafficDiv))
	mix(math.Float64bits(p.CoreArea))
	mix(math.Float64bits(p.SharedFrac))
	mix(math.Float64bits(p.PrivateSharedFrac))
	mix(math.Float64bits(p.ThermalResist))
	mix(math.Float64bits(p.CachePowerMult))
	mix(math.Float64bits(p.CacheEnergyMult))
	mix(math.Float64bits(p.LinkEnergyMult))
	// Fold the high bits down so "low bits of the hash" sees the whole
	// word even with a small shard count.
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

// evalShard is one lock + map segment. Padded to a cache line so
// neighboring shards' lock words don't false-share.
type evalShard struct {
	mu sync.RWMutex
	m  map[cacheKey]*evalEntry
	_  [64 - unsafe.Sizeof(sync.RWMutex{})%64]byte
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

// solShard is one lock + map segment of the constraint-solution memo.
type solShard struct {
	mu sync.RWMutex
	m  map[solKey]Solution
	_  [64 - unsafe.Sizeof(sync.RWMutex{})%64]byte
}

// DefaultEvalCacheShards is the shard count NewEvalCache uses: enough
// that a few dozen engine workers rarely collide, small enough that
// aggregation stays trivial.
const DefaultEvalCacheShards = 16

// EvalCache memoizes successful SupportableCores evaluations. It is safe
// for concurrent use by the engine's worker pool. Errors are never cached:
// domain violations fail fast before any root finding, and injected or
// transient faults must not poison later retries.
type EvalCache struct {
	shards []evalShard
	sols   []solShard
	mask   uint64

	hits   atomic.Uint64
	misses atomic.Uint64

	obsHits   *obs.Counter
	obsMisses *obs.Counter
}

// NewEvalCache returns an empty cache with DefaultEvalCacheShards shards,
// wired to the process obs registry (scaling.cache.hits /
// scaling.cache.misses count across all solves and all shards).
func NewEvalCache() *EvalCache {
	return NewEvalCacheShards(0)
}

// NewEvalCacheShards is NewEvalCache with the shard count pinned: 0 means
// DefaultEvalCacheShards, other values round up to a power of two.
// NewEvalCacheShards(1) reproduces the pre-sharding single-lock layout —
// kept callable for contention benchmarks.
func NewEvalCacheShards(n int) *EvalCache {
	if n <= 0 {
		n = DefaultEvalCacheShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	c := &EvalCache{
		shards:    make([]evalShard, n),
		sols:      make([]solShard, n),
		mask:      uint64(n - 1),
		obsHits:   obs.Default().Counter("scaling.cache.hits"),
		obsMisses: obs.Default().Counter("scaling.cache.misses"),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*evalEntry)
		c.sols[i].m = make(map[solKey]Solution)
	}
	return c
}

// shard picks the segment for one fingerprint: the low bits of its hash.
func (c *EvalCache) shard(fp Fingerprint) *evalShard {
	return &c.shards[fp.hash()&c.mask]
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
	sh := c.shard(fp)
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
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
	sh.mu.Lock()
	if prev, ok := sh.m[k]; ok {
		v = prev.val // concurrent solvers: keep the first answer (they agree)
	} else {
		sh.m[k] = &evalEntry{val: v}
	}
	sh.mu.Unlock()
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
	sh := &c.sols[fp.hash()&c.mask]
	sh.mu.RLock()
	sol, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		c.obsHits.Inc()
		return sol.copyWalls(), nil
	}
	sol, err := cons.SolveFP(ctx, c, s, fp, st, n2, gen)
	if err != nil {
		return Solution{}, err
	}
	sh.mu.Lock()
	if prev, ok := sh.m[k]; ok {
		sol = prev // concurrent solvers: keep the first answer (they agree)
	} else {
		sh.m[k] = sol
	}
	sh.mu.Unlock()
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
// current contents. Shards purge one at a time; a purge concurrent with
// eval load empties every segment without ever blocking them all at once.
func (c *EvalCache) Purge() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.m = make(map[cacheKey]*evalEntry)
		sh.mu.Unlock()
		ss := &c.sols[i]
		ss.mu.Lock()
		n += len(ss.m)
		ss.m = make(map[solKey]Solution)
		ss.mu.Unlock()
	}
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
	Shards      int         `json:"shards"`
	Hits        uint64      `json:"hits"`
	Misses      uint64      `json:"misses"`
	ApproxBytes uint64      `json:"approx_bytes"`
	Top         []StackInfo `json:"top,omitempty"` // hottest stacks, by hits
}

// Info reports occupancy, lifetime traffic, an approximate byte
// footprint, and the topN hottest stack fingerprints (Yavits-style
// measured-occupancy numbers for cache sizing), aggregated across every
// shard. topN ≤ 0 omits the ranking. Shards are visited one at a time, so
// the view is per-shard consistent but not a global atomic snapshot —
// fine for the monitoring endpoint it feeds.
func (c *EvalCache) Info(topN int) Info {
	if c == nil {
		return Info{}
	}
	const entryBytes = uint64(unsafe.Sizeof(cacheKey{})+unsafe.Sizeof(evalEntry{})) + 8 // key + entry + pointer
	info := Info{
		Shards: len(c.shards),
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
	}
	var agg map[technique.Params]*StackInfo
	if topN > 0 {
		agg = make(map[technique.Params]*StackInfo)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		info.Entries += len(sh.m)
		if topN > 0 {
			for k, e := range sh.m {
				si := agg[k.fp.Params]
				if si == nil {
					si = &StackInfo{Stack: fmt.Sprintf("%+v", k.fp.Params)}
					agg[k.fp.Params] = si
				}
				si.Entries++
				si.Hits += e.hits.Load()
			}
		}
		sh.mu.RUnlock()
	}
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
