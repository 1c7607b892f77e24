package mattson

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cachesim"
	"repro/internal/robust"
	"repro/internal/trace"
)

// Eligible reports whether MissCurveFastParallel can profile base exactly
// with the single-pass stack machinery. The stack algorithm models
// true-LRU replacement with whole-line write-back fills, so it covers LRU,
// non-sectored, write-back configurations — fully associative (Assoc 0,
// reuse-distance histogram) or set-associative up to 64 ways (per-set
// recency arrays; the dirty state packs into one word per set). Everything
// else (FIFO/Random/PLRU, sectored fills, write-through stores) falls back
// to the brute-force simulator.
func Eligible(base cachesim.Config) bool {
	if base.Policy != cachesim.LRU || base.SectorBytes != 0 || !base.WriteBack {
		return false
	}
	if base.LineBytes < 4 {
		// The per-set words pack the dirty flag into bit 63 and use
		// all-ones as the invalid sentinel, so tags must fit in 62 bits;
		// LineBytes ≥ 4 guarantees lineShift ≥ 2. (Narrower lines never
		// occur in practice.)
		return false
	}
	return base.Assoc >= 0 && base.Assoc <= 64
}

// MissCurveFastParallel is the single-pass replacement for
// cachesim.MissCurve: it draws n accesses (the first warmup excluded from
// statistics) from gen — streaming, never materializing the trace — and
// produces the miss curve for every size in one profiling pass. For
// Eligible configurations the returned points are exact (identical Stats
// to the brute simulator for set-associative sweeps; identical miss counts
// for fully-associative ones, where write-back/eviction counters are left
// zero because they are not derivable size-independently in one pass).
// Ineligible configurations transparently fall back to materializing the
// stream and running cachesim.MissCurve. Simulated work is published to
// the obs registry under the usual cachesim.* counter names either way.
// Cancellation is checked at chunk boundaries of the streaming pass, so a
// canceled sweep aborts within one chunk instead of draining the stream.
//
// Set-associative sweeps partition their sets across workers, and the
// calling goroutine draws and packs the accesses for them: 0 picks
// GOMAXPROCS, 1 forces one partition run inline on the calling goroutine,
// and counts are rounded down to a power of two and capped so each worker
// keeps at least minPartSets sets of the smallest swept size. Output is
// bit-identical for every worker count — the partition is by set index,
// and per-set LRU state never crosses a partition boundary — so the knob
// only trades wall-clock for goroutines. Fully-associative and fallback
// (non-Eligible) sweeps ignore it.
func MissCurveFastParallel(ctx context.Context, gen trace.Generator, base cachesim.Config, sizes []int, warmup, n, workers int) ([]cachesim.CurvePoint, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("mattson: no sizes to sweep")
	}
	if n < 0 {
		return nil, fmt.Errorf("mattson: negative access count %d", n)
	}
	if warmup < 0 {
		warmup = 0
	}
	if warmup > n {
		warmup = n
	}
	cfgs := make([]cachesim.Config, len(sizes))
	for i, sz := range sizes {
		cfg := base
		cfg.SizeBytes = sz
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("mattson: size %d: %w", sz, err)
		}
		cfgs[i] = cfg
	}
	if !Eligible(base) {
		// The general simulator needs a materialized trace; it publishes
		// its own obs counters via RunTrace's flush.
		return cachesim.MissCurveCtx(ctx, trace.Collect(gen, n), base, sizes, warmup)
	}
	if base.Assoc == 0 {
		return faCurve(ctx, gen, cfgs, warmup, n)
	}
	return setCurve(ctx, gen, cfgs, warmup, n, workers)
}

// chunkAccesses is the fully-associative pass's cancellation granularity.
const chunkAccesses = 4096

// faCurve profiles fully-associative sizes via one reuse-distance
// histogram: a single stack pass, then each size's miss count is a suffix
// sum.
func faCurve(ctx context.Context, gen trace.Generator, cfgs []cachesim.Config, warmup, n int) ([]cachesim.CurvePoint, error) {
	lineShift := uint(bits.TrailingZeros(uint(cfgs[0].LineBytes)))
	maxLines := 0
	for _, cfg := range cfgs {
		if l := cfg.Lines(); l > maxLines {
			maxLines = l
		}
	}
	p := NewProfiler(maxLines)
	for i := 0; i < warmup; i++ {
		if i%chunkAccesses == 0 {
			if err := robust.Err(ctx); err != nil {
				return nil, err
			}
		}
		p.Skip(gen.Next().Addr >> lineShift)
	}
	for i := warmup; i < n; i++ {
		if (i-warmup)%chunkAccesses == 0 {
			if err := robust.Err(ctx); err != nil {
				return nil, err
			}
		}
		p.Record(gen.Next().Addr >> lineShift)
	}
	hist := p.Hist()
	out := make([]cachesim.CurvePoint, len(cfgs))
	for i, cfg := range cfgs {
		misses := hist.Misses(cfg.Lines())
		st := cachesim.Stats{
			Accesses:  hist.Total(),
			Hits:      hist.Total() - misses,
			Misses:    misses,
			FillBytes: misses * uint64(cfg.LineBytes),
		}
		cachesim.PublishStats(st)
		out[i] = cachesim.CurvePoint{SizeBytes: cfg.SizeBytes, Stats: st}
	}
	return out, nil
}

// setCurve profiles set-associative sizes through the sweep driver in
// parallel.go, which partitions the sets across parallelWorkers workers.
// Profilers are ordered largest-first and, for 8-way sweeps, grouped into
// quintets driven by the fused kernel (runFused5), which turns
// set-refinement inclusion — a miss in a group's largest cache implies a
// miss in its four smaller ones — into an in-register skip of the
// followers' lookups. Leftover sizes run their single-profiler kernels.
//
// The calling goroutine draws each access and packs it once for the
// worker that owns its sets. Worker counters merge into the profilers only
// at the warmup boundary and the end of the feed, so the hot path takes no
// locks, and the per-set arrays and packed buffers come from a pooled
// arena, so repeated sweeps stay near zero-alloc.
func setCurve(ctx context.Context, gen trace.Generator, cfgs []cachesim.Config, warmup, n, workers int) ([]cachesim.CurvePoint, error) {
	ar := getArena()
	defer putArena(ar)
	minSets := cfgs[0].Sets()
	for _, cfg := range cfgs[1:] {
		minSets = min(minSets, cfg.Sets())
	}
	// Grabbed first, the packed buffers size the arena slab, and the
	// per-set arrays of a quick-sized sweep fit in the rest of it.
	run := newParallelRun(workers, minSets, ar)
	profs := make([]*SetProfiler, len(cfgs))
	for i, cfg := range cfgs {
		p, err := newSetProfiler(cfg, ar)
		if err != nil {
			return nil, err
		}
		profs[i] = p
	}
	// Largest-first order. Validate forces power-of-two set counts, so any
	// two same-associativity profilers in this order are nested (equal
	// sizes included) and every prefix element includes every later one.
	order := make([]int, len(profs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return cfgs[order[a]].SizeBytes > cfgs[order[b]].SizeBytes
	})
	var fused []fusedGroup
	var single []int
	i := 0
	if profs[0].assoc == 8 {
		for ; i+5 <= len(order); i += 5 {
			var g fusedGroup
			for j := 0; j < 5; j++ {
				g.idx[j] = order[i+j]
				g.p[j] = profs[order[i+j]]
			}
			fused = append(fused, g)
		}
	}
	for ; i < len(order); i++ {
		single = append(single, order[i])
	}
	run.start(fused, single, profs)
	defer run.stop()
	if err := run.feed(ctx, gen, warmup); err != nil {
		return nil, err
	}
	run.merge(profs)
	for _, p := range profs {
		p.ResetStats()
	}
	if err := run.feed(ctx, gen, n-warmup); err != nil {
		return nil, err
	}
	run.merge(profs)
	out := make([]cachesim.CurvePoint, len(cfgs))
	for i, p := range profs {
		st := p.Stats()
		cachesim.PublishStats(st)
		out[i] = cachesim.CurvePoint{SizeBytes: cfgs[i].SizeBytes, Stats: st}
	}
	return out, nil
}
