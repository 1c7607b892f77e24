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

// TestCacheVictim checks that every evicting access names, as Victim, the
// one line that was resident before it and is not after it, and that an
// access without an eviction leaves every resident line in place.
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
						if len(gone) != 1 || gone[0] != res.Victim {
							t.Fatalf("%+v: access %d %v: Victim %d, lines that left %v", cfg, i, a, res.Victim, gone)
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

// compressedRecency maps each line c holds to its recency rank within its
// set (0 = most recent).
func compressedRecency(c *CompressedCache) map[uint64]int {
	held := map[uint64]int{}
	for set := range c.sets {
		rank := 0
		for e := c.sets[set].lru.Front(); e != nil; e = e.Next() {
			held[e.Value.(*compEntry).tag<<c.setShift|uint64(set)] = rank
			rank++
		}
	}
	return held
}

// TestCompressedVictim checks the compressed cache, where one fill can
// evict several lines, from the back of the set's recency list forward:
// Victim must be the last of them, the most recent of the lines that left.
func TestCompressedVictim(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 4, Policy: LRU, WriteBack: true, WriteAllocate: true}
	c, err := NewCompressed(cfg, func(line uint64) int { return 1 + int(line*0x9e3779b97f4a7c15>>58) })
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	before, multi := compressedRecency(c), 0
	for i := 0; i < 20000; i++ {
		a := trace.Access{Addr: uint64(r.Intn(128 * 64)), Write: r.Intn(4) == 0}
		res := c.Access(a)
		after := compressedRecency(c)
		var gone []uint64
		for line := range before {
			if _, ok := after[line]; !ok {
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
		last := gone[0]
		for _, line := range gone {
			if before[line] < before[last] {
				last = line
			}
		}
		if res.Victim != last {
			t.Fatalf("access %d %v: Victim %d, want %d, the last of %v to leave", i, a, res.Victim, last, gone)
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
