package cachesim

import (
	"context"
	"math/bits"

	"repro/internal/robust"
	"repro/internal/trace"
)

// way is one cache way's metadata.
type way struct {
	tag     uint64
	stamp   uint64 // LRU: last-touch tick; FIFO: fill tick
	valid   bool
	dirty   bool
	sectors uint64 // valid-sector bitmask (sectored mode); all-ones otherwise
	dirtyS  uint64 // dirty-sector bitmask
}

// Cache is a single-level set-associative cache.
type Cache struct {
	cfg        Config
	sets       [][]way
	plruBits   []uint64 // one tree-bit word per set (PLRU only)
	assoc      int
	setMask    uint64
	setShift   uint
	lineShift  uint
	sectorsPer int // sectors per line; 1 when sectoring is off
	tick       uint64
	rng        uint64 // xorshift state for Random policy
	stats      Stats
	flushed    Stats // portion of stats already published via FlushObs
	obs        cacheObs
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = cfg.Lines()
	}
	sets := cfg.Lines() / assoc
	c := &Cache{
		cfg:        cfg,
		sets:       make([][]way, sets),
		assoc:      assoc,
		setMask:    uint64(sets - 1),
		setShift:   uint(bits.TrailingZeros(uint(sets))),
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sectorsPer: 1,
		rng:        0x9e3779b97f4a7c15,
		obs:        newCacheObs(),
	}
	if cfg.SectorBytes != 0 {
		c.sectorsPer = cfg.LineBytes / cfg.SectorBytes
	}
	backing := make([]way, sets*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	if cfg.Policy == PLRU {
		c.plruBits = make([]uint64, sets)
	}
	return c, nil
}

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents —
// used to discard warmup effects. Any not-yet-published counter deltas are
// flushed to the obs registry first, so registry totals still include
// warmup work.
func (c *Cache) ResetStats() {
	c.FlushObs()
	c.stats = Stats{}
	c.flushed = Stats{}
}

// FlushObs publishes the counter deltas accumulated since the last flush
// (or reset) to the process-default obs registry. Access itself touches
// only the local Stats struct; batch drivers (RunTrace, hierarchies, or
// any manual replay loop) call FlushObs once per batch, keeping the
// per-access cost of enabled metrics to zero. No-op, with no allocations,
// when collection is disabled.
func (c *Cache) FlushObs() {
	if c.obs.accesses == nil {
		return
	}
	d := c.stats
	f := c.flushed
	c.obs.add(Stats{
		Accesses:   d.Accesses - f.Accesses,
		Hits:       d.Hits - f.Hits,
		Misses:     d.Misses - f.Misses,
		Evictions:  d.Evictions - f.Evictions,
		WriteBacks: d.WriteBacks - f.WriteBacks,
	})
	c.flushed = d
}

// Result describes the outcome of one access.
type Result struct {
	Hit       bool
	Evicted   bool
	WroteBack bool
	// Slot is set·assoc + way of the line Cache.Access left resident, the
	// slot the victim left when Evicted; a fully associative cache is one
	// set. A write-through no-allocate store miss leaves no line and
	// reports 0.
	Slot int
	// FillBytes and WriteBackBytes are the off-side traffic this access
	// generated (fills inward, write backs outward).
	FillBytes      int
	WriteBackBytes int
}

// xorshift advances the Random-policy PRNG.
func (c *Cache) xorshift() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// sectorOf returns the sector index of addr within its line.
func (c *Cache) sectorOf(addr uint64) int {
	if c.sectorsPer == 1 {
		return 0
	}
	return int(addr&(uint64(c.cfg.LineBytes)-1)) / c.cfg.SectorBytes
}

// Access runs one reference through the cache.
func (c *Cache) Access(a trace.Access) Result {
	c.stats.Accesses++
	c.tick++
	lineAddr := a.Addr >> c.lineShift
	setIdx := lineAddr & c.setMask
	tag := lineAddr >> c.setShift
	set := c.sets[setIdx]
	sector := c.sectorOf(a.Addr)
	sectorBit := uint64(1) << uint(sector)

	// Lookup.
	for i := range set {
		w := &set[i]
		if !w.valid || w.tag != tag {
			continue
		}
		if c.sectorsPer > 1 && w.sectors&sectorBit == 0 {
			// Sector miss on a present line: fetch just the sector.
			c.stats.Misses++
			w.sectors |= sectorBit
			c.touch(setIdx, i)
			res := Result{FillBytes: c.cfg.SectorBytes, Slot: int(setIdx)*c.assoc + i}
			c.stats.FillBytes += uint64(res.FillBytes)
			c.applyWrite(w, a, sectorBit, &res)
			return res
		}
		// Hit.
		c.stats.Hits++
		c.touch(setIdx, i)
		res := Result{Hit: true, Slot: int(setIdx)*c.assoc + i}
		c.applyWrite(w, a, sectorBit, &res)
		return res
	}

	// Miss.
	c.stats.Misses++
	if a.Write && !c.cfg.WriteAllocate && !c.cfg.WriteBack {
		// Write-through no-allocate: the store goes straight past.
		res := Result{WriteBackBytes: c.storeBytes()}
		c.stats.WriteBackBytes += uint64(res.WriteBackBytes)
		return res
	}
	victim := c.pickVictim(setIdx)
	w := &set[victim]
	res := Result{Slot: int(setIdx)*c.assoc + victim}
	if w.valid {
		res.Evicted = true
		c.stats.Evictions++
		if w.dirty {
			res.WroteBack = true
			c.stats.WriteBacks++
			res.WriteBackBytes += c.dirtyBytes(w)
			c.stats.WriteBackBytes += uint64(c.dirtyBytes(w))
		}
	}
	// Fill.
	w.tag = tag
	w.valid = true
	w.dirty = false
	w.dirtyS = 0
	if c.sectorsPer > 1 {
		w.sectors = sectorBit
		res.FillBytes += c.cfg.SectorBytes
	} else {
		w.sectors = ^uint64(0)
		res.FillBytes += c.cfg.LineBytes
	}
	c.stats.FillBytes += uint64(res.FillBytes)
	c.fillStamp(setIdx, victim)
	c.applyWrite(w, a, sectorBit, &res)
	return res
}

// applyWrite handles the store side of an access that ends with the line
// resident (hit or post-fill).
func (c *Cache) applyWrite(w *way, a trace.Access, sectorBit uint64, res *Result) {
	if !a.Write {
		return
	}
	if c.cfg.WriteBack {
		w.dirty = true
		w.dirtyS |= sectorBit
		return
	}
	// Write-through: the store's bytes cross immediately.
	res.WriteBackBytes += c.storeBytes()
	c.stats.WriteBackBytes += uint64(c.storeBytes())
}

// storeBytes is the granularity charged for a write-through store.
func (c *Cache) storeBytes() int {
	if c.sectorsPer > 1 {
		return c.cfg.SectorBytes
	}
	return 8 // one word
}

// dirtyBytes is the outward transfer when evicting w dirty.
func (c *Cache) dirtyBytes(w *way) int {
	if c.sectorsPer > 1 {
		return bits.OnesCount64(w.dirtyS) * c.cfg.SectorBytes
	}
	return c.cfg.LineBytes
}

// touch updates replacement state on a hit.
func (c *Cache) touch(setIdx uint64, wayIdx int) {
	switch c.cfg.Policy {
	case LRU:
		c.sets[setIdx][wayIdx].stamp = c.tick
	case PLRU:
		c.plruTouch(setIdx, wayIdx)
	case FIFO, Random:
		// No hit-time state.
	}
}

// fillStamp updates replacement state on a fill.
func (c *Cache) fillStamp(setIdx uint64, wayIdx int) {
	switch c.cfg.Policy {
	case LRU, FIFO:
		c.sets[setIdx][wayIdx].stamp = c.tick
	case PLRU:
		c.plruTouch(setIdx, wayIdx)
	case Random:
	}
}

// pickVictim chooses the way to replace in setIdx, preferring invalid ways.
func (c *Cache) pickVictim(setIdx uint64) int {
	set := c.sets[setIdx]
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	switch c.cfg.Policy {
	case LRU, FIFO:
		victim, best := 0, set[0].stamp
		for i := 1; i < len(set); i++ {
			if set[i].stamp < best {
				victim, best = i, set[i].stamp
			}
		}
		return victim
	case Random:
		return int(c.xorshift() % uint64(len(set)))
	case PLRU:
		return c.plruVictim(setIdx)
	default:
		return 0
	}
}

// plruTouch flips the tree bits along wayIdx's path to point away from it.
// Bit layout: node 1 is the root; node k's children are 2k and 2k+1; leaves
// correspond to ways. Bit=0 means "the LRU side is the left subtree".
func (c *Cache) plruTouch(setIdx uint64, wayIdx int) {
	node := 1
	levels := bits.TrailingZeros(uint(c.assoc))
	for l := levels - 1; l >= 0; l-- {
		bit := (wayIdx >> uint(l)) & 1
		if bit == 1 {
			c.plruBits[setIdx] &^= 1 << uint(node) // LRU side is left
		} else {
			c.plruBits[setIdx] |= 1 << uint(node) // LRU side is right
		}
		node = node*2 + bit
	}
}

// plruVictim follows the tree bits to the pseudo-LRU leaf.
func (c *Cache) plruVictim(setIdx uint64) int {
	node := 1
	levels := bits.TrailingZeros(uint(c.assoc))
	wayIdx := 0
	for l := 0; l < levels; l++ {
		b := int((c.plruBits[setIdx] >> uint(node)) & 1)
		wayIdx = wayIdx*2 + b
		node = node*2 + b
	}
	return wayIdx
}

// Contains reports whether addr's line (and sector, if sectored) is
// resident — a side-effect-free probe for tests.
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	setIdx := lineAddr & c.setMask
	tag := lineAddr >> c.setShift
	sectorBit := uint64(1) << uint(c.sectorOf(addr))
	for i := range c.sets[setIdx] {
		w := &c.sets[setIdx][i]
		if w.valid && w.tag == tag {
			return c.sectorsPer == 1 || w.sectors&sectorBit != 0
		}
	}
	return false
}

// RunTrace replays accesses through the cache, resetting statistics after
// the first `warmup` accesses, and returns the post-warmup stats. Obs
// counter deltas are flushed once per batch (at the warmup reset and at
// the end), never inside the access loop.
func RunTrace(c *Cache, accesses []trace.Access, warmup int) Stats {
	st, _ := RunTraceCtx(context.Background(), c, accesses, warmup) // bg ctx: cannot fail
	return st
}

// runBatch is the cancellation granularity of RunTraceCtx: the context is
// polled once per this many accesses, keeping the per-access hot loop
// branch-free while bounding cancellation latency to one batch.
const runBatch = 8192

// RunTraceCtx is RunTrace with cancellation checked at batch boundaries
// (every runBatch accesses). On cancellation it returns a taxonomy
// cancellation error with whatever stats had accumulated flushed to obs.
func RunTraceCtx(ctx context.Context, c *Cache, accesses []trace.Access, warmup int) (Stats, error) {
	if warmup > len(accesses) {
		warmup = len(accesses)
	}
	replay := func(as []trace.Access) error {
		for len(as) > 0 {
			if err := robust.Err(ctx); err != nil {
				return err
			}
			n := min(runBatch, len(as))
			for _, a := range as[:n] {
				c.Access(a)
			}
			as = as[n:]
		}
		return nil
	}
	if err := replay(accesses[:warmup]); err != nil {
		return Stats{}, err
	}
	c.ResetStats()
	err := replay(accesses[warmup:])
	c.FlushObs()
	if err != nil {
		return Stats{}, err
	}
	return c.Stats(), nil
}
