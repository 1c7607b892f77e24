package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/suite"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchPowerLaw runs fn once per power-law suite.Paper workload, named by
// its α: the generators fig01's quick run builds. The Pareto draw's cost
// depends on α: math.Pow skips Exp and Log for the integer exponents of
// α = 0.25 and 0.5 (−4 and −2), and the table's fallback rate varies.
func benchPowerLaw(b *testing.B, fn func(b *testing.B, wl suite.Workload)) {
	for _, wl := range suite.Paper {
		if !wl.Phased {
			b.Run(fmt.Sprintf("alpha=%.2f", wl.TargetAlpha), func(b *testing.B) { fn(b, wl) })
		}
	}
}

// fig01Accesses is how many accesses fig01's quick run draws from each
// power-law generator, after its warm prefix (internal/exp/fig01.go).
const fig01Accesses = 240_000

// BenchmarkStackDistanceNext times the draws fig01's quick run makes: a
// fresh generator every fig01Accesses accesses, built with the timer
// stopped. One generator driven for all of b.N would grow its stack with
// every cold miss, far past what fig01 sees.
func BenchmarkStackDistanceNext(b *testing.B) {
	benchPowerLaw(b, func(b *testing.B, wl suite.Workload) {
		var g trace.Generator
		for i := 0; i < b.N; i++ {
			if i%fig01Accesses == 0 {
				b.StopTimer()
				var err error
				if g, err = wl.Build(quickFig01Build(0)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			g.Next()
		}
	})
}

func BenchmarkNewStackDistance(b *testing.B) {
	benchPowerLaw(b, func(b *testing.B, wl suite.Workload) {
		for i := 0; i < b.N; i++ {
			if _, err := wl.Build(quickFig01Build(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkZipfNext(b *testing.B) {
	g, err := workload.NewZipf(1<<20, 1.2, 0.3, 1, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkSharedPrivateNext draws fig14's workload at each of its core
// counts, configured as internal/exp's fig14WorkloadConfig at seed 0.
func BenchmarkSharedPrivateNext(b *testing.B) {
	for _, threads := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			g, err := workload.NewSharedPrivate(workload.SharedPrivateConfig{
				Threads: threads, SharedLines: 1 << 13, PrivateLines: 1 << 13,
				SharedAccessFrac: 0.7, Skew: 1.01, WriteFraction: 0.2, Seed: 99,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

func BenchmarkCollect1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := workload.NewStackDistance(workload.StackDistanceConfig{
			Alpha: 0.5, HotLines: 256, FootprintLines: 1 << 16,
			WriteFraction: 0.3, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		trace.Collect(g, 1_000_000)
	}
}
