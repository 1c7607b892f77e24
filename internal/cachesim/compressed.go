package cachesim

import (
	"container/list"
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// SizeModel reports the compressed size, in bytes, a given line would
// occupy in a compressed cache. Implementations must return a value in
// [1, lineBytes]. The compress package supplies realistic models derived
// from actual FPC/BDI encodings; tests use synthetic ones.
type SizeModel func(lineAddr uint64) int

// CompressedCache models an L2 with cache compression (§6.1): each set has
// a fixed byte budget (ways × line size) but holds variable-size compressed
// lines, so a set can hold more than `ways` lines when data compresses
// well. Replacement is LRU by bytes: the least recently used lines are
// evicted until the incoming line fits.
type CompressedCache struct {
	cfg       Config
	sizeOf    SizeModel
	sets      []compSet
	setMask   uint64
	setShift  uint
	lineShift uint
	budget    int // bytes per set
	stats     Stats
}

type compEntry struct {
	tag   uint64
	size  int
	dirty bool
}

type compSet struct {
	lru  *list.List // front = most recent; values are *compEntry
	used int        // bytes in use
}

// NewCompressed builds a compressed cache. cfg is interpreted as the
// physical geometry (SizeBytes of storage, Assoc×LineBytes per set);
// sizeOf provides per-line compressed sizes.
func NewCompressed(cfg Config, sizeOf SizeModel) (*CompressedCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SectorBytes != 0 {
		return nil, fmt.Errorf("cachesim: compressed cache does not support sectoring")
	}
	if cfg.Assoc == 0 {
		return nil, fmt.Errorf("cachesim: compressed cache needs explicit associativity")
	}
	if sizeOf == nil {
		return nil, fmt.Errorf("cachesim: nil size model")
	}
	sets := cfg.Sets()
	c := &CompressedCache{
		cfg:       cfg,
		sizeOf:    sizeOf,
		sets:      make([]compSet, sets),
		setMask:   uint64(sets - 1),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		budget:    cfg.Assoc * cfg.LineBytes,
	}
	for i := range c.sets {
		c.sets[i].lru = list.New()
	}
	return c, nil
}

// Stats returns accumulated counters.
func (c *CompressedCache) Stats() Stats { return c.stats }

// ResetStats clears counters, keeping contents.
func (c *CompressedCache) ResetStats() {
	c.stats = Stats{}
}

// Access runs one reference through the compressed cache. A miss can evict
// several lines to make room; Result.Victim then names the last of them.
func (c *CompressedCache) Access(a trace.Access) Result {
	c.stats.Accesses++
	lineAddr := a.Addr >> c.lineShift
	setIdx := lineAddr & c.setMask
	tag := lineAddr >> c.setShift
	s := &c.sets[setIdx]

	for e := s.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*compEntry)
		if ent.tag != tag {
			continue
		}
		c.stats.Hits++
		s.lru.MoveToFront(e)
		if a.Write {
			ent.dirty = true
		}
		return Result{Hit: true}
	}

	// Miss: fill the compressed line, evicting LRU lines until it fits.
	c.stats.Misses++
	size := c.sizeOf(lineAddr)
	if size < 1 {
		size = 1
	}
	if size > c.cfg.LineBytes {
		size = c.cfg.LineBytes
	}
	var res Result
	for s.used+size > c.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*compEntry)
		s.lru.Remove(back)
		s.used -= victim.size
		res.Evicted = true
		res.Victim = victim.tag<<c.setShift | setIdx
		c.stats.Evictions++
		if victim.dirty {
			res.WroteBack = true
			c.stats.WriteBacks++
			// Write backs cross the chip boundary uncompressed here; link
			// compression is modeled separately (it is a different
			// technique in the paper's taxonomy).
			res.WriteBackBytes += c.cfg.LineBytes
			c.stats.WriteBackBytes += uint64(c.cfg.LineBytes)
		}
	}
	s.lru.PushFront(&compEntry{tag: tag, size: size, dirty: a.Write})
	s.used += size
	res.FillBytes = c.cfg.LineBytes
	c.stats.FillBytes += uint64(c.cfg.LineBytes)
	return res
}

// RunCompressedTrace replays accesses with warmup exclusion, as RunTrace.
func RunCompressedTrace(c *CompressedCache, accesses []trace.Access, warmup int) Stats {
	if warmup > len(accesses) {
		warmup = len(accesses)
	}
	for _, a := range accesses[:warmup] {
		c.Access(a)
	}
	c.ResetStats()
	for _, a := range accesses[warmup:] {
		c.Access(a)
	}
	return c.Stats()
}
