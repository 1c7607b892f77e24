package mattson

import (
	"context"

	"repro/internal/cachesim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig1Bench pins the benchmark configuration that compares the brute-force
// miss-curve pipeline against the single-pass profiler: the quick Fig 1
// sweep (five sizes, 32KB–512KB, 8-way LRU write-back). The root go-test
// benchmarks (BenchmarkMissCurveBrute/Mattson/Parallel) and this package's
// benchmarks and tests share it, so they all measure the identical workload.
type Fig1Bench struct {
	Base     cachesim.Config
	Sizes    []int
	Warmup   int
	Accesses int
}

// QuickFig1Bench returns the canonical configuration, mirroring runFig01's
// -quick parameters.
func QuickFig1Bench() Fig1Bench {
	return Fig1Bench{
		Base: cachesim.Config{
			LineBytes: 64, Assoc: 8, Policy: cachesim.LRU,
			WriteBack: true, WriteAllocate: true,
		},
		Sizes:    cachesim.PowerOfTwoSizes(32*1024, 512*1024),
		Warmup:   60_000,
		Accesses: 300_000,
	}
}

// MasterTrace materializes the benchmark workload once (the fig01 quick
// stack-distance mix). Benchmarks replay it through trace.NewReplayer so the
// expensive workload generator — which dwarfs both pipelines — stays out
// of the measured loop; what remains is exactly the miss-curve stage the
// profiler replaces.
func (f Fig1Bench) MasterTrace() ([]trace.Access, error) {
	g, err := workload.NewStackDistance(workload.StackDistanceConfig{
		Alpha:          0.5,
		HotLines:       256,
		FootprintLines: 1 << 17,
		WriteFraction:  0.3,
		WritesPerLine:  true,
		Seed:           4242,
	})
	if err != nil {
		return nil, err
	}
	return trace.Collect(g, f.Accesses), nil
}

// RunBrute executes one brute-force pipeline iteration: materialize the
// stream, then replay it once per size through the full simulator.
func (f Fig1Bench) RunBrute(stream trace.Generator) ([]cachesim.CurvePoint, error) {
	return cachesim.MissCurve(trace.Collect(stream, f.Accesses), f.Base, f.Sizes, f.Warmup)
}

// RunMattson executes one single-pass pipeline iteration over the same
// stream with one inline worker pinned (workers=1), so serial
// numbers stay comparable across machines regardless of GOMAXPROCS.
func (f Fig1Bench) RunMattson(stream trace.Generator) ([]cachesim.CurvePoint, error) {
	return MissCurveFastParallel(context.Background(), stream, f.Base, f.Sizes, f.Warmup, f.Accesses, 1)
}

// RunMattsonParallel is RunMattson with the set-parallel driver pinned to
// workers (0 = GOMAXPROCS). Output is bit-identical to RunMattson.
func (f Fig1Bench) RunMattsonParallel(stream trace.Generator, workers int) ([]cachesim.CurvePoint, error) {
	return MissCurveFastParallel(context.Background(), stream, f.Base, f.Sizes, f.Warmup, f.Accesses, workers)
}
