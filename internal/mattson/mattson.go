// Package mattson implements single-pass reuse-distance (stack-distance)
// profiling for LRU caches — Mattson et al.'s classic stack algorithm,
// applied to the miss-curve sweeps behind the paper's Fig 1.
//
// The brute-force route to a miss curve materializes a trace and replays
// it through one independent cache simulation per size: O(sizes ×
// accesses). Because LRU obeys the stack inclusion property, the same
// curve is computable exactly in ONE pass over the access stream:
//
//   - Fully associative: a cache of N lines always holds the N most
//     recently used lines, so an access hits iff its stack distance (the
//     number of distinct lines touched since its previous reference) is
//     < N. One O(n log n) pass produces a reuse-distance histogram from
//     which every size's miss count is a suffix sum (Profiler).
//   - Set associative: bit-selection indexing shards the stream by set,
//     and within a set the same inclusion argument applies per set count.
//     SetProfiler replays the stream through one lean recency array per
//     size — exact LRU contents with none of the general simulator's
//     per-access overhead (no stamps, no victim scans, no sector or
//     replacement-policy dispatch).
//
// MissCurveFast is the drop-in entry point: it consumes a trace.Generator
// stream (no full-trace materialization), profiles every requested size
// simultaneously, and falls back to the brute-force simulator for
// configurations the stack algorithm does not cover (non-LRU policies,
// sectored fills, write-through caches).
//
// The fully-associative stack is a Fenwick tree over access-time slots
// (fenwickStack): each access takes the next slot, and a re-reference's
// distance is the number of occupied slots after its previous one. The
// tests cross-check it against an independent treap over the same
// timestamps, built on internal/ranklist, and bench_test.go pins the cost
// gap: a handful of cache-friendly array updates per access against the
// treap's pointer chasing.
package mattson

// Cold is the distance reported for a first-touch access: no previous
// reference exists, so the access misses in every finite cache.
const Cold = -1

// Profiler computes exact fully-associative LRU miss ratios at every cache
// size simultaneously from one pass over an access stream. Feed it line
// addresses with Record; read the distance histogram with Hist. The zero
// value is not usable — construct with NewProfiler.
type Profiler struct {
	stack *fenwickStack
	hist  Histogram
}

// NewProfiler returns a Profiler whose histogram resolves distances up to
// maxLines exactly (distances ≥ maxLines are pooled — they miss at every
// size of interest). maxLines is typically the largest swept cache size in
// lines. sizeHint, if positive, pre-sizes the internal structures for a
// stream of that many accesses, avoiding growth stalls mid-pass.
func NewProfiler(maxLines, sizeHint int) *Profiler {
	return &Profiler{
		stack: newFenwickStack(sizeHint),
		hist:  NewHistogram(maxLines),
	}
}

// Record profiles one access to the given cache-line address.
func (p *Profiler) Record(line uint64) {
	p.hist.Record(p.stack.Touch(line))
}

// Skip advances the stack state for one access without recording it in the
// histogram — how warmup accesses are handled: they shape cache contents
// but are excluded from the reported statistics, exactly like the
// simulator's post-warmup ResetStats.
func (p *Profiler) Skip(line uint64) {
	p.stack.Touch(line)
}

// Hist returns the accumulated reuse-distance histogram.
func (p *Profiler) Hist() *Histogram { return &p.hist }

// ResetHist clears the histogram while keeping stack state — the warmup
// boundary operation when warmup accesses were Recorded rather than
// Skipped.
func (p *Profiler) ResetHist() { p.hist.Reset() }
