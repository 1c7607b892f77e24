package mattson

// Histogram accumulates LRU stack distances. Because a fully-associative
// LRU cache of N lines misses exactly the accesses with distance ≥ N (or
// cold), the miss count for EVERY size is a suffix sum over one histogram —
// the payoff of the single-pass algorithm.
type Histogram struct {
	counts []uint64 // counts[d] = accesses with stack distance d
	over   uint64   // distances ≥ len(counts): misses at every tracked size
	cold   uint64   // first-touch accesses: miss in any finite cache
	total  uint64
}

// NewHistogram returns a histogram resolving distances below maxLines
// exactly; larger distances are pooled (they miss at every size of
// interest anyway).
func NewHistogram(maxLines int) Histogram {
	if maxLines < 0 {
		maxLines = 0
	}
	return Histogram{counts: make([]uint64, maxLines)}
}

// Record adds one access with the given stack distance (Cold for a first
// touch).
func (h *Histogram) Record(d int) {
	h.total++
	switch {
	case d == Cold:
		h.cold++
	case d < len(h.counts):
		h.counts[d]++
	default:
		h.over++
	}
}

// Total returns the number of recorded accesses.
func (h *Histogram) Total() uint64 { return h.total }

// Misses returns how many recorded accesses miss in a fully-associative
// LRU cache of the given number of lines: cold misses plus every access
// with stack distance ≥ lines. lines above the histogram's resolution is
// clamped — callers must size NewHistogram to the largest query.
func (h *Histogram) Misses(lines int) uint64 {
	m := h.cold + h.over
	if lines < 0 {
		lines = 0
	}
	if lines > len(h.counts) {
		lines = len(h.counts)
	}
	for _, c := range h.counts[lines:] {
		m += c
	}
	return m
}
