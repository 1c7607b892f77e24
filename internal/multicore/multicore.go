// Package multicore simulates a CMP with per-core private L1 caches and a
// shared L2, tracking which cores touch each L2 line during its lifetime.
// It is the substrate for the paper's Fig 14: "each time a cache line is
// evicted from the shared cache, we record whether the block is accessed by
// more than one core or not during the block's lifetime."
//
// Lifetimes are harvested lazily. The L2 reports each access's victim, and
// the CMP puts it on a pending list, at most once per line: a pending bit
// sits next to the line's sharer mask, so the list never holds more
// entries than the sharer map. A harvest runs only once the map has
// outgrown the L2 by 64 entries. It walks the list, not the map: each
// listed line that is still gone counts one ended lifetime and leaves the
// map, and a line refilled since its eviction keeps its entry and merged
// mask. The merge is part of the pinned Fig 14 values (EXPERIMENTS.md).
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
	// must leave its line resident: the harvest relies on both.
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

// sharer is one tracked L2 line: the cores that touched it in its current
// lifetime, and whether it is on the pending list.
type sharer struct {
	mask    uint64
	pending bool
}

// CMP is the simulated chip. Every resident L2 line has a sharers entry;
// so does every line evicted since the last harvest, and each of those is
// on the pending list.
type CMP struct {
	cfg     Config
	l1s     []*cachesim.Cache
	l2      *cachesim.Cache
	sharers map[uint64]sharer // L2 line -> sharer cores, pending bit
	pending []uint64          // lines evicted since the last harvest
	stats   SharingStats
}

// New builds the CMP.
func New(cfg Config) (*CMP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cmp := &CMP{
		cfg:     cfg,
		l1s:     make([]*cachesim.Cache, cfg.Cores),
		sharers: make(map[uint64]sharer, cfg.L2.Lines()),
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
// access. An eviction puts the L2's victim on the pending list and may
// trigger a harvest, before the new line's mask is set.
func (c *CMP) Access(a trace.Access) error {
	core := int(a.TID)
	if core >= c.cfg.Cores {
		return fmt.Errorf("multicore: access from core %d on a %d-core chip", core, c.cfg.Cores)
	}
	l1res := c.l1s[core].Access(a)
	if l1res.Hit {
		return nil
	}
	line := a.Line(c.cfg.L2.LineBytes)
	res := c.l2.Access(a)
	if res.Evicted {
		if s := c.sharers[res.Victim]; !s.pending {
			s.pending = true
			c.sharers[res.Victim] = s
			c.pending = append(c.pending, res.Victim)
		}
		c.reconcile(line)
	}
	s := c.sharers[line]
	s.mask |= 1 << uint(core)
	c.sharers[line] = s
	return nil
}

// reconcile harvests the pending lines once the sharer map holds at least
// L2.Lines()+64 entries. A listed line that is resident again, or is the
// line just inserted, keeps its entry and merged mask; any other ended its
// lifetime and is counted and deleted. On an L2 that Validate accepts,
// every map key was resident after its own access and can leave the L2
// only as some access's victim, so the list holds every non-resident key:
// the harvest matches a scan of the whole map at O(1) cost per eviction.
func (c *CMP) reconcile(justInserted uint64) {
	if len(c.sharers) < c.cfg.L2.Lines()+64 {
		return
	}
	for _, line := range c.pending {
		s := c.sharers[line]
		if line == justInserted || c.l2.Contains(line*uint64(c.cfg.L2.LineBytes)) {
			s.pending = false
			c.sharers[line] = s
			continue
		}
		c.stats.EvictedLines++
		if bits.OnesCount64(s.mask) > 1 {
			c.stats.EvictedShared++
		}
		delete(c.sharers, line)
	}
	c.pending = c.pending[:0]
}

// Run drives n accesses from the generator through the chip.
func (c *CMP) Run(g trace.Generator, n int) error {
	for i := 0; i < n; i++ {
		if err := c.Access(g.Next()); err != nil {
			return err
		}
	}
	return nil
}

// Sharing returns the sharing statistics, including a snapshot of
// still-resident lines.
func (c *CMP) Sharing() SharingStats {
	st := c.stats
	for line, s := range c.sharers {
		if !c.l2.Contains(line * uint64(c.cfg.L2.LineBytes)) {
			st.EvictedLines++
			if bits.OnesCount64(s.mask) > 1 {
				st.EvictedShared++
			}
			continue
		}
		st.LiveLines++
		if bits.OnesCount64(s.mask) > 1 {
			st.LiveShared++
		}
	}
	return st
}

// MemoryTrafficBytes returns bytes exchanged with off-chip memory.
func (c *CMP) MemoryTrafficBytes() uint64 { return c.l2.Stats().TrafficBytes() }
