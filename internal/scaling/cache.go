package scaling

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/technique"
)

// The memoized solver-evaluation cache behind the scenario engine's batch
// queries. Repeated sweeps evaluate the same (stack, chip, budget) triple
// over and over — Fig 15's candles alone solve the BASE configuration four
// times, and a user batch of what-if specs repeats stacks constantly — so
// every root-finding wall solve (bandwidth, and energy via its effective
// traffic budget) goes through an EvalCache. Constraint solutions are
// rebuilt from these entries per call: the closed-form thermal solve and
// the walls' usages cost less than a sound key on the whole constraint.
//
// The key's stack identity is the stack's RESOLVED technique.Params.
// Resolution is order-independent and collapses any spelling of a stack
// ("CC=2 + LC=2" vs "CC/LC=2") with identical model effect onto one
// entry, so the cache is exactly as sharp as the math. Alongside the
// Params the key carries everything else that determines the root: the
// baseline allocation, α, the chip area, and the traffic budget.

// cacheKey is one memoized solver evaluation.
type cacheKey struct {
	pm     technique.Params
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

// EvalCache memoizes successful traffic-root solves. It is safe
// for concurrent use by the engine's and optimizer's worker pools: one map
// behind one RWMutex, so a hit costs one read lock, and one flight per
// missing key, so concurrent misses on a key solve it once. Errors are
// never cached: domain violations fail fast before any root finding, and
// injected or transient faults must not poison later retries.
type EvalCache struct {
	mu     sync.RWMutex
	evals  map[cacheKey]*evalEntry
	flight robust.Flight[cacheKey, *evalEntry]

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
		obsHits:   obs.Default().Counter("scaling.cache.hits"),
		obsMisses: obs.Default().Counter("scaling.cache.misses"),
	}
}

// key builds the full memoization key for a solve on s.
func (c *EvalCache) key(s Solver, pm technique.Params, n2, budget float64) cacheKey {
	base := s.Base()
	return cacheKey{pm: pm, baseP: base.P, baseC: base.C, alpha: s.Alpha(), n2: n2, budget: budget}
}

// lookup returns k's entry, or nil when k has not been solved.
func (c *EvalCache) lookup(k cacheKey) *evalEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.evals[k]
}

// hit counts one answer served from e.
func (c *EvalCache) hit(e *evalEntry) float64 {
	c.hits.Add(1)
	c.obsHits.Inc()
	e.hits.Add(1)
	return e.val
}

// SupportableCores is the solver's traffic root for the resolved stack
// parameters pm, memoized. Batch evaluators resolve a stack once and pass
// its Params at every axis point (resolving dominates a cache hit
// otherwise). A nil receiver degrades to the uncached solve.
//
// Each call counts one event. The caller that runs the solve counts the
// key's one miss; every other caller counts a hit on the entry — flight
// followers, and a leader whose second look finds the entry a previous
// flight stored. Followers of a failed solve share its error and count
// nothing.
func (c *EvalCache) SupportableCores(ctx context.Context, s Solver, pm technique.Params, n2, budget float64) (float64, error) {
	if c == nil {
		return s.root(ctx, pm, n2, budget)
	}
	k := c.key(s, pm, n2, budget)
	if e := c.lookup(k); e != nil {
		return c.hit(e), nil
	}
	solved := false
	e, _, err := c.flight.Do(k, func() (*evalEntry, error) {
		if e := c.lookup(k); e != nil {
			return e, nil
		}
		solved = true
		c.misses.Add(1)
		c.obsMisses.Inc()
		// Only a real solve gets a trace span; hits take well under a µs.
		sctx, tsp := obs.StartTraceSpan(ctx, "scaling.solve")
		v, err := s.root(sctx, pm, n2, budget)
		tsp.End()
		if err != nil {
			return nil, err
		}
		e := &evalEntry{val: v}
		c.mu.Lock()
		c.evals[k] = e
		c.mu.Unlock()
		return e, nil
	})
	if err != nil {
		return 0, err
	}
	if solved {
		return e.val, nil
	}
	return c.hit(e), nil
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
	return n
}

// StackInfo aggregates the cache's view of one resolved technique
// stack: how many distinct (chip, α, budget) keys share it and
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
// footprint, and the topN hottest resolved stacks (Yavits-style
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
			si := agg[k.pm]
			if si == nil {
				si = &StackInfo{Stack: fmt.Sprintf("%+v", k.pm)}
				agg[k.pm] = si
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
