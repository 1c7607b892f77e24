package repro

import (
	"sync"
	"testing"

	"repro/internal/mattson"
	"repro/internal/trace"
)

// The miss-curve benchmarks compare the two pipelines behind every
// simulation-backed sweep on the quick Fig 1 configuration:
//
//	Brute:   materialize the stream, then replay it through one full
//	         simulator per size (how the sweeps ran before internal/mattson).
//	Mattson: stream once through the single-pass profiler, all sizes at
//	         once, no trace materialization.
//
// Both draw from a replay of the same pre-collected master trace, so the
// workload generator's cost (which dwarfs either pipeline) is excluded and
// the numbers isolate the miss-curve stage itself.

var masterTrace = sync.OnceValue(func() []trace.Access {
	tr, err := mattson.QuickFig1Bench().MasterTrace()
	if err != nil {
		panic(err)
	}
	return tr
})

func BenchmarkMissCurveBrute(b *testing.B) {
	bc := mattson.QuickFig1Bench()
	stream := trace.MustReplayer(masterTrace())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.RunBrute(stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMissCurveMattson(b *testing.B) {
	bc := mattson.QuickFig1Bench()
	stream := trace.MustReplayer(masterTrace())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.RunMattson(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMissCurveParallel measures the set-parallel kernel with the
// worker count following GOMAXPROCS, so `go test -bench MissCurveParallel
// -cpu 1,2,4,8` sweeps the scaling curve in one invocation. Results are
// bit-identical to the one-worker sweep at every point; only wall-clock
// moves. At -cpu 1 the driver resolves to one partition run inline on
// the calling goroutine, making that sub-benchmark the baseline for the
// ratio.
func BenchmarkMissCurveParallel(b *testing.B) {
	bc := mattson.QuickFig1Bench()
	stream := trace.MustReplayer(masterTrace())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.RunMattsonParallel(stream, 0); err != nil {
			b.Fatal(err)
		}
	}
}
