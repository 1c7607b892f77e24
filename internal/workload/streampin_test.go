package workload_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/suite"
)

// streamPins are FNV-64a digests of the first pinAccesses accesses of every
// power-law suite.Paper generator under fig01's quick build, keyed by seed
// and workload name. They were recorded from the treap-backed generator
// that preceded LRUStack, so they pin the stream across any change to the
// stack's internals: a single different rank, line id, RNG draw or write
// bit changes a digest. They also predate paretoDraw's table, so they pin
// the table draw to the plain math.Pow inversion: one depth or cold flag
// decided differently changes a digest.
var streamPins = map[int64]map[string]uint64{
	0: {
		"SPECjbb (linux)": 0xb8e68f52539da51d,
		"SPECjbb (aix)":   0x71f17ff3acc82f19,
		"SPECpower":       0x7f4c800c15aceeca,
		"OLTP-1":          0x9b07f58a3e598b4e,
		"OLTP-2":          0x6fffba62782d8dac,
		"OLTP-3":          0xe163c7390a7a9f6b,
		"OLTP-4":          0x97685456b28e0efd,
		"SPEC2006 (avg)":  0x50c8172ab14e5d89,
	},
	1: {
		"SPECjbb (linux)": 0x1449dc096642f8f6,
		"SPECjbb (aix)":   0x84129d0fd9bb0a4a,
		"SPECpower":       0x33e4e6b754eca00a,
		"OLTP-1":          0xc7e3ef837643b62f,
		"OLTP-2":          0x981794ba68788daf,
		"OLTP-3":          0x6e9e485a15557e82,
		"OLTP-4":          0xb0746966d3c4c35b,
		"SPEC2006 (avg)":  0xbb2633492b88fe16,
	},
}

const pinAccesses = 400_000

// quickFig01Build is fig01's quick-mode suite configuration (see
// internal/exp/fig01.go).
func quickFig01Build(seed int64) suite.BuildOptions {
	b := suite.DefaultBuildOptions()
	b.Seed = seed
	b.FootprintLines = 1 << 17
	b.PhasedLines = 2048
	b.PhasedDwell = 300_000 / 3
	return b
}

func TestStackDistanceStreamPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes 6.4M generated accesses")
	}
	for seed, pins := range streamPins {
		for _, wl := range suite.Paper {
			if wl.Phased {
				continue
			}
			g, err := wl.Build(quickFig01Build(seed))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var rec [10]byte
			for i := 0; i < pinAccesses; i++ {
				a := g.Next()
				binary.LittleEndian.PutUint64(rec[:8], a.Addr)
				rec[8] = a.TID
				rec[9] = 0
				if a.Write {
					rec[9] = 1
				}
				h.Write(rec[:])
			}
			got := h.Sum64()
			t.Logf("seed %d %q: %#016x", seed, wl.Name, got)
			if want, ok := pins[wl.Name]; !ok || got != want {
				t.Errorf("seed %d %s: stream digest %#016x, pinned %#016x", seed, wl.Name, got, want)
			}
		}
	}
}
