package cachesim

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// residentLines reports which of the lines [0, universe) c holds, probing
// every sector of each so that a sectored line with sector 0 absent still
// counts.
func residentLines(c *Cache, universe int) []bool {
	step := c.cfg.LineBytes
	if c.cfg.SectorBytes != 0 {
		step = c.cfg.SectorBytes
	}
	held := make([]bool, universe)
	for line := range held {
		for off := 0; off < c.cfg.LineBytes && !held[line]; off += step {
			held[line] = c.Contains(uint64(line*c.cfg.LineBytes + off))
		}
	}
	return held
}

// TestCacheVictim checks that every access reporting an eviction displaces
// exactly one resident line, and that an access without an eviction leaves
// every resident line in place.
func TestCacheVictim(t *testing.T) {
	const lines, universe = 16, 48
	r := rand.New(rand.NewSource(1))
	for _, policy := range []Policy{LRU, FIFO, Random, PLRU} {
		for _, assoc := range []int{1, 2, 4, 8, 0} {
			for _, sectorBytes := range []int{0, 16} {
				cfg := Config{
					SizeBytes: lines * 64, LineBytes: 64, Assoc: assoc, Policy: policy,
					WriteBack: true, WriteAllocate: true, SectorBytes: sectorBytes,
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				before, evictions := residentLines(c, universe), 0
				for i := 0; i < 3000; i++ {
					a := trace.Access{Addr: uint64(r.Intn(universe * 64)), Write: r.Intn(4) == 0}
					res := c.Access(a)
					after := residentLines(c, universe)
					var gone []uint64
					for line := range before {
						if before[line] && !after[line] {
							gone = append(gone, uint64(line))
						}
					}
					if res.Evicted {
						evictions++
						if len(gone) != 1 {
							t.Fatalf("%+v: access %d %v: eviction reported, lines that left %v", cfg, i, a, gone)
						}
					} else if len(gone) != 0 {
						t.Fatalf("%+v: access %d %v: no eviction reported, lines that left %v", cfg, i, a, gone)
					}
					before = after
				}
				if evictions == 0 {
					t.Errorf("%+v: no evictions; the trace must overflow the cache", cfg)
				}
			}
		}
	}
}

// TestCacheSlot checks that every access that leaves its line resident
// reports, as Slot, set·assoc + way of the way that holds the line after
// it — the way a fill took from its victim.
func TestCacheSlot(t *testing.T) {
	const lines, universe = 16, 48
	r := rand.New(rand.NewSource(2))
	for _, policy := range []Policy{LRU, FIFO, Random, PLRU} {
		for _, assoc := range []int{1, 2, 4, 8, 0} {
			for _, wp := range []struct {
				sectorBytes         int
				writeBack, allocate bool
			}{{0, true, true}, {16, true, true}, {0, false, true}, {0, false, false}} {
				cfg := Config{
					SizeBytes: lines * 64, LineBytes: 64, Assoc: assoc, Policy: policy,
					WriteBack: wp.writeBack, WriteAllocate: wp.allocate, SectorBytes: wp.sectorBytes,
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3000; i++ {
					a := trace.Access{Addr: uint64(r.Intn(universe * 64)), Write: r.Intn(4) == 0}
					res := c.Access(a)
					if !res.Hit && a.Write && !cfg.WriteAllocate && !cfg.WriteBack {
						continue // the store went past the cache
					}
					line := a.Addr >> c.lineShift
					set := line & c.setMask
					if res.Slot < 0 || uint64(res.Slot/c.assoc) != set {
						t.Fatalf("%+v: access %d %v: Slot %d is not in set %d", cfg, i, a, res.Slot, set)
					}
					if w := c.sets[set][res.Slot%c.assoc]; !w.valid || w.tag<<c.setShift|set != line {
						t.Fatalf("%+v: access %d %v: Slot %d holds %+v, not line %d", cfg, i, a, res.Slot, w, line)
					}
				}
			}
		}
	}
}

// compressedLines returns the set of lines c holds.
func compressedLines(c *CompressedCache) map[uint64]bool {
	held := map[uint64]bool{}
	for set := range c.sets {
		for e := c.sets[set].lru.Front(); e != nil; e = e.Next() {
			held[e.Value.(*compEntry).tag<<c.setShift|uint64(set)] = true
		}
	}
	return held
}

// TestCompressedVictim checks the compressed cache, where one fill can
// evict several lines: an access reports an eviction exactly when at least
// one resident line left, and some accesses must evict more than one.
func TestCompressedVictim(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 4, Policy: LRU, WriteBack: true, WriteAllocate: true}
	c, err := NewCompressed(cfg, func(line uint64) int { return 1 + int(line*0x9e3779b97f4a7c15>>58) })
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	before, multi := compressedLines(c), 0
	for i := 0; i < 20000; i++ {
		a := trace.Access{Addr: uint64(r.Intn(128 * 64)), Write: r.Intn(4) == 0}
		res := c.Access(a)
		after := compressedLines(c)
		var gone []uint64
		for line := range before {
			if !after[line] {
				gone = append(gone, line)
			}
		}
		if !res.Evicted {
			if len(gone) != 0 {
				t.Fatalf("access %d %v: no eviction reported, lines that left %v", i, a, gone)
			}
			before = after
			continue
		}
		if len(gone) == 0 {
			t.Fatalf("access %d %v: eviction reported, but no line left", i, a)
		}
		if len(gone) > 1 {
			multi++
		}
		before = after
	}
	if multi == 0 {
		t.Error("no access evicted more than one line; the size model must vary more")
	}
}
