package mattson

import (
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// benchTrace returns the quick Fig 1 master trace (memoized via the bench
// case helper so every benchmark here sees the identical stream).
var benchMaster []trace.Access

func benchTrace(b *testing.B) []trace.Access {
	if benchMaster == nil {
		tr, err := QuickFig1Bench().MasterTrace()
		if err != nil {
			b.Fatal(err)
		}
		benchMaster = tr
	}
	return benchMaster
}

// BenchmarkProfiler times the fully-associative profiler, in ns per
// access, on the streams it serves: fig01's quick master trace,
// abl-policy's LRU full row (α 0.5 over a 2^19-line footprint, 1M
// accesses) and, as the worst case, 1M uniform draws over 2^20 lines,
// where every reuse distance runs the whole footprint deep. Each
// iteration records its stream into a new profiler sized for abl-policy's
// largest cache, 2 MB of 64-byte lines, as faCurve would.
func BenchmarkProfiler(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lines func(b *testing.B) []uint64
	}{
		{"fig01-quick", func(b *testing.B) []uint64 { return lineAddrs(benchTrace(b)) }},
		{"abl-policy", func(b *testing.B) []uint64 {
			g, err := workload.NewStackDistance(workload.StackDistanceConfig{
				Alpha: 0.5, HotLines: 256, FootprintLines: 1 << 19,
				WriteFraction: 0.25, WritesPerLine: true, Seed: 314,
			})
			if err != nil {
				b.Fatal(err)
			}
			return lineAddrs(trace.Collect(g, 1_000_000))
		}},
		{"uniform-2^20", func(*testing.B) []uint64 {
			next := xorStream(7, 1<<20)
			lines := make([]uint64, 1_000_000)
			for i := range lines {
				lines[i] = next()
			}
			return lines
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lines := bc.lines(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := NewProfiler(1 << 15)
				for _, l := range lines {
					p.Record(l)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/access")
		})
	}
}

// lineAddrs returns the 64-byte line address of every access.
func lineAddrs(tr []trace.Access) []uint64 {
	lines := make([]uint64, len(tr))
	for i, a := range tr {
		lines[i] = a.Addr >> 6
	}
	return lines
}

// BenchmarkSetProfilerRun isolates one profiler instance per swept size,
// exposing how per-access cost grows as the ways array falls out of the
// faster cache levels.
func BenchmarkSetProfilerRun(b *testing.B) {
	tr := benchTrace(b)
	bc := QuickFig1Bench()
	for _, sz := range bc.Sizes {
		cfg := bc.Base
		cfg.SizeBytes = sz
		b.Run(fmt.Sprintf("%dKB", sz>>10), func(b *testing.B) {
			p, err := newSetProfiler(cfg, make([]uint64, setWords(cfg)))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(tr)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.runBatch(tr)
			}
		})
	}
}
