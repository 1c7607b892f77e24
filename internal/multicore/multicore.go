// Package multicore simulates a CMP with per-core private L1 caches and a
// shared L2, tracking which cores touch each L2 line during its lifetime.
// It is the substrate for the paper's Fig 14: "each time a cache line is
// evicted from the shared cache, we record whether the block is accessed by
// more than one core or not during the block's lifetime."
//
// Sharer masks are kept per L2 slot (set·assoc + way), which the L2
// reports for every access. An eviction counts the victim's lifetime from
// the mask of the slot it leaves, and the fill that takes the slot starts
// the new line's lifetime with an empty mask, so a line that is evicted
// and refilled is two lifetimes.
package multicore

import (
	"fmt"
	"math/bits"

	"repro/internal/cachesim"
	"repro/internal/trace"
)

// Config describes the simulated CMP.
type Config struct {
	Cores int             // number of cores (≤ 64: sharer masks are one word)
	L1    cachesim.Config // per-core private L1
	L2    cachesim.Config // shared L2
}

// Validate reports whether the CMP is realizable.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > 64 {
		return fmt.Errorf("multicore: cores must be in [1, 64], got %d", c.Cores)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("multicore: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("multicore: L2: %w", err)
	}
	// Lifetimes are tracked per whole line, and every L2-visible access
	// must leave its line resident: a lifetime ends only when its line is
	// some access's victim.
	if c.L2.SectorBytes != 0 {
		return fmt.Errorf("multicore: L2.SectorBytes must be 0 (sharers are tracked per whole line), got %d", c.L2.SectorBytes)
	}
	if !c.L2.WriteBack && !c.L2.WriteAllocate {
		return fmt.Errorf("multicore: L2.WriteAllocate must be set on a write-through L2 (a store that bypasses the L2 starts no lifetime)")
	}
	return nil
}

// SharingStats summarizes L2 line lifetimes.
type SharingStats struct {
	// EvictedLines counts completed lifetimes (evictions).
	EvictedLines uint64
	// EvictedShared counts evicted lines that were touched by ≥2 cores.
	EvictedShared uint64
	// LiveLines / LiveShared snapshot the same for still-resident lines.
	LiveLines  uint64
	LiveShared uint64
}

// SharedFraction returns the Fig 14 metric: the fraction of evicted lines
// accessed by more than one core during their lifetime. If nothing has
// been evicted yet, resident lines are used instead.
func (s SharingStats) SharedFraction() float64 {
	if s.EvictedLines > 0 {
		return float64(s.EvictedShared) / float64(s.EvictedLines)
	}
	if s.LiveLines > 0 {
		return float64(s.LiveShared) / float64(s.LiveLines)
	}
	return 0
}

// CMP is the simulated chip.
type CMP struct {
	cfg Config
	l1s []*cachesim.Cache
	l2  *cachesim.Cache
	// sharers[slot] is the sharer core bitmask of the line resident in
	// that L2 slot (cachesim.Result.Slot), 0 while the slot is empty.
	// Config.Validate rejects sectored L2s and write-through no-allocate
	// L2s, the only ones where an access's line would not sit in Slot.
	sharers []uint64
	stats   SharingStats // evicted lifetimes
}

// New builds the CMP.
func New(cfg Config) (*CMP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cmp := &CMP{
		cfg:     cfg,
		l1s:     make([]*cachesim.Cache, cfg.Cores),
		sharers: make([]uint64, cfg.L2.Lines()),
	}
	for i := range cmp.l1s {
		l1, err := cachesim.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		cmp.l1s[i] = l1
	}
	l2, err := cachesim.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	cmp.l2 = l2
	return cmp, nil
}

// L2 exposes the shared cache (for stats).
func (c *CMP) L2() *cachesim.Cache { return c.l2 }

// L1 exposes core i's private cache.
func (c *CMP) L1(i int) *cachesim.Cache { return c.l1s[i] }

// Access routes one reference: the issuing core's L1 first, then the
// shared L2 on an L1 miss. Sharer masks are updated on every L2-visible
// access. An eviction ends the victim's lifetime, which is counted from
// its slot's mask before the fill resets the mask for the new line.
func (c *CMP) Access(a trace.Access) error {
	core := int(a.TID)
	if core >= c.cfg.Cores {
		return fmt.Errorf("multicore: access from core %d on a %d-core chip", core, c.cfg.Cores)
	}
	if c.l1s[core].Access(a).Hit {
		return nil
	}
	res := c.l2.Access(a)
	mask := &c.sharers[res.Slot]
	if res.Evicted {
		c.stats.EvictedLines++
		if bits.OnesCount64(*mask) > 1 {
			c.stats.EvictedShared++
		}
	}
	if !res.Hit {
		*mask = 0
	}
	*mask |= 1 << uint(core)
	return nil
}

// Run drives n accesses from the generator through the chip and counts
// only those after the first warmup, as cachesim.RunTrace does: after
// warmup accesses, clamped to [0, n], it zeroes the sharing and cache
// statistics, so lifetimes that end in the warmup go uncounted. Resident
// lines keep their sharer masks, so a lifetime that spans the reset counts
// whole. Every cache's obs counter deltas, warmup included, are published
// on return.
func (c *CMP) Run(g trace.Generator, warmup, n int) error {
	defer func() {
		for _, l1 := range c.l1s {
			l1.FlushObs()
		}
		c.l2.FlushObs()
	}()
	drive := func(n int) error {
		for range n {
			if err := c.Access(g.Next()); err != nil {
				return err
			}
		}
		return nil
	}
	warmup = min(max(warmup, 0), n)
	if err := drive(warmup); err != nil {
		return err
	}
	c.stats = SharingStats{}
	for _, l1 := range c.l1s {
		l1.ResetStats()
	}
	c.l2.ResetStats()
	return drive(n - warmup)
}

// Sharing returns the sharing statistics, including a snapshot of
// still-resident lines.
func (c *CMP) Sharing() SharingStats {
	st := c.stats
	for _, mask := range c.sharers {
		// Every resident line has at least its first toucher's bit.
		if mask != 0 {
			st.LiveLines++
		}
		if bits.OnesCount64(mask) > 1 {
			st.LiveShared++
		}
	}
	return st
}

// MemoryTrafficBytes returns bytes exchanged with off-chip memory.
func (c *CMP) MemoryTrafficBytes() uint64 { return c.l2.Stats().TrafficBytes() }
