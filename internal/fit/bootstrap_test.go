package fit

import (
	"math"
	"testing"

	"repro/internal/cachesim"
)

// noisyCurve builds a power-law curve with multiplicative noise.
func noisyCurve(alpha float64, noise float64, seed uint64) []cachesim.CurvePoint {
	sizes := cachesim.PowerOfTwoSizes(16*1024, 8*1024*1024)
	pts := make([]cachesim.CurvePoint, len(sizes))
	x := seed
	for i, s := range sizes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		jitter := 1 + noise*(float64(x%1000)/500-1)
		m := 0.4 * math.Pow(float64(s)/16384, -alpha) * jitter
		const accesses = 1 << 30
		pts[i] = cachesim.CurvePoint{
			SizeBytes: s,
			Stats:     cachesim.Stats{Accesses: accesses, Misses: uint64(m * accesses)},
		}
	}
	return pts
}

func TestBootstrapCoversTruth(t *testing.T) {
	pts := noisyCurve(0.5, 0.05, 99)
	res, err := Bootstrap(pts, 500, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.AlphaLo <= 0.5 && 0.5 <= res.AlphaHi) {
		t.Errorf("90%% CI [%.3f, %.3f] misses the true α 0.5", res.AlphaLo, res.AlphaHi)
	}
	if !(res.AlphaLo < res.Point.Alpha && res.Point.Alpha < res.AlphaHi) {
		t.Errorf("point estimate %.3f outside its own CI [%.3f, %.3f]",
			res.Point.Alpha, res.AlphaLo, res.AlphaHi)
	}
	if res.AlphaHi-res.AlphaLo <= 0 {
		t.Errorf("degenerate width %v", res.AlphaHi-res.AlphaLo)
	}
	if res.Resamples != 500 || res.Level != 0.9 {
		t.Errorf("metadata wrong: %+v", res)
	}
}

func TestBootstrapWidthTracksNoise(t *testing.T) {
	clean, err := Bootstrap(noisyCurve(0.5, 0.01, 3), 400, 0.9, 11)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Bootstrap(noisyCurve(0.5, 0.15, 3), 400, 0.9, 11)
	if err != nil {
		t.Fatal(err)
	}
	noisyWidth, cleanWidth := noisy.AlphaHi-noisy.AlphaLo, clean.AlphaHi-clean.AlphaLo
	if !(noisyWidth > cleanWidth) {
		t.Errorf("noisier curve should widen the CI: %v vs %v", noisyWidth, cleanWidth)
	}
}

func TestBootstrapValidation(t *testing.T) {
	pts := noisyCurve(0.5, 0.05, 1)
	if _, err := Bootstrap(pts, 5, 0.9, 1); err == nil {
		t.Error("too few resamples accepted")
	}
	if _, err := Bootstrap(pts, 100, 0, 1); err == nil {
		t.Error("zero confidence level accepted")
	}
	if _, err := Bootstrap(pts, 100, 1, 1); err == nil {
		t.Error("confidence level 1 accepted")
	}
	if _, err := Bootstrap(pts[:3], 100, 0.9, 1); err == nil {
		t.Error("too few points accepted")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	pts := noisyCurve(0.4, 0.08, 5)
	a, err := Bootstrap(pts, 200, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bootstrap(pts, 200, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.AlphaLo != b.AlphaLo || a.AlphaHi != b.AlphaHi {
		t.Error("bootstrap not deterministic for fixed seed")
	}
}
