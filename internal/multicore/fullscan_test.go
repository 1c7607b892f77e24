package multicore

import (
	"fmt"
	"math/bits"

	"repro/internal/cachesim"
	"repro/internal/trace"
)

// fullScanCMP is the residency oracle the CMP is tested against. It keeps
// its sharer masks per line, in a map, and never learns which line an
// access evicted: after every evicting access it scans the whole map and
// counts one ended lifetime for every line the L2 no longer holds. It
// records which line each access left in which L2 slot only so that the
// tests can match the CMP's per-slot masks to its per-line ones.
type fullScanCMP struct {
	cfg     Config
	l1s     []*cachesim.Cache
	l2      *cachesim.Cache
	sharers map[uint64]uint64 // L2 line -> sharer core bitmask
	lineOf  []uint64          // L2 slot -> the line last put there
	stats   SharingStats
}

func newFullScan(cfg Config) (*fullScanCMP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &fullScanCMP{
		cfg:     cfg,
		l1s:     make([]*cachesim.Cache, cfg.Cores),
		sharers: make(map[uint64]uint64, cfg.L2.Lines()),
		lineOf:  make([]uint64, cfg.L2.Lines()),
	}
	for i := range c.l1s {
		l1, err := cachesim.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		c.l1s[i] = l1
	}
	l2, err := cachesim.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	c.l2 = l2
	return c, nil
}

func (c *fullScanCMP) Access(a trace.Access) error {
	core := int(a.TID)
	if core >= c.cfg.Cores {
		return fmt.Errorf("multicore: access from core %d on a %d-core chip", core, c.cfg.Cores)
	}
	if c.l1s[core].Access(a).Hit {
		return nil
	}
	line := a.Line(c.cfg.L2.LineBytes)
	res := c.l2.Access(a)
	if res.Evicted {
		c.scan()
	}
	c.sharers[line] |= 1 << uint(core)
	c.lineOf[res.Slot] = line
	return nil
}

// scan counts and drops every map entry whose line has left the L2. The
// line an evicting access brings in was not resident before it, so it
// has no entry yet.
func (c *fullScanCMP) scan() {
	for line, mask := range c.sharers {
		if !c.l2.Contains(line * uint64(c.cfg.L2.LineBytes)) {
			c.stats.EvictedLines++
			if bits.OnesCount64(mask) > 1 {
				c.stats.EvictedShared++
			}
			delete(c.sharers, line)
		}
	}
}

func (c *fullScanCMP) Sharing() SharingStats {
	st := c.stats
	for _, mask := range c.sharers {
		st.LiveLines++
		if bits.OnesCount64(mask) > 1 {
			st.LiveShared++
		}
	}
	return st
}
