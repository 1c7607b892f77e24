package mattson

import (
	"testing"

	"fmt"

	"repro/internal/trace"
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

// BenchmarkStack times the fully-associative profiler's fenwickStack on
// the quick Fig 1 access stream.
func BenchmarkStack(b *testing.B) {
	tr := benchTrace(b)
	s := newFenwickStack(len(tr))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range tr {
			s.Touch(a.Addr >> 6)
		}
	}
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
			p, err := newSetProfiler(cfg, new(sweepArena))
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
