package numeric

import (
	"context"
	"math"
	"testing"
)

func BenchmarkBrentCubic(b *testing.B) {
	f := func(x float64) float64 { return x*x*x + 64*x - 2048 }
	for i := 0; i < b.N; i++ {
		if _, err := Brent(f, 1e-9, 32, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBisectCubic(b *testing.B) {
	f := func(x float64) float64 { return x*x*x + 64*x - 2048 }
	for i := 0; i < b.N; i++ {
		if _, err := BisectCtx(context.Background(), f, 1e-9, 32, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogLogFit(b *testing.B) {
	xs := make([]float64, 16)
	ys := make([]float64, 16)
	for i := range xs {
		xs[i] = math.Pow(2, float64(i+10))
		ys[i] = 0.1 * math.Pow(xs[i]/1024, -0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LogLogFit(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
