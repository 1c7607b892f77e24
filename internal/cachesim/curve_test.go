package cachesim

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestPowerOfTwoSizes(t *testing.T) {
	got := PowerOfTwoSizes(1024, 8192)
	want := []int{1024, 2048, 4096, 8192}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	if got := PowerOfTwoSizes(1024, 1024); len(got) != 1 {
		t.Errorf("single size: %v", got)
	}
	if got := PowerOfTwoSizes(8192, 1024); got != nil {
		t.Errorf("lo > hi: %v, want nil", got)
	}
	for _, lo := range []int{0, -64} {
		if got := PowerOfTwoSizes(lo, 1024); got != nil {
			t.Errorf("lo = %d: %v, want nil", lo, got)
		}
	}
}

func TestMissCurveErrors(t *testing.T) {
	if _, err := MissCurve(nil, Config{LineBytes: 64, Assoc: 4, Policy: LRU}, nil, 0); err == nil {
		t.Error("empty size list accepted")
	}
	if _, err := MissCurve(nil, Config{LineBytes: 64, Assoc: 4, Policy: LRU}, []int{100}, 0); err == nil {
		t.Error("invalid derived config accepted")
	}
}

func TestNormalizedMissRates(t *testing.T) {
	pts := []CurvePoint{
		{SizeBytes: 1024, Stats: Stats{Accesses: 100, Misses: 50}},
		{SizeBytes: 2048, Stats: Stats{Accesses: 100, Misses: 25}},
	}
	norm := NormalizedMissRates(pts)
	if norm[0] != 1 || norm[1] != 0.5 {
		t.Errorf("norm = %v", norm)
	}
	if got := NormalizedMissRates(nil); len(got) != 0 {
		t.Errorf("empty: %v", got)
	}
	zero := []CurvePoint{{Stats: Stats{Accesses: 10}}}
	if got := NormalizedMissRates(zero); got[0] != 0 {
		t.Errorf("zero-miss base: %v", got)
	}
}

// TestMissCurvePowerLaw is the Fig 1 pipeline in miniature: generate a
// stack-distance workload with a known α, sweep cache sizes, fit the curve,
// and recover α.
func TestMissCurvePowerLaw(t *testing.T) {
	const wantAlpha = 0.5
	g, err := workload.NewStackDistance(workload.StackDistanceConfig{
		Alpha:          wantAlpha,
		HotLines:       128,
		FootprintLines: 1 << 18,
		WriteFraction:  0.25,
		WritesPerLine:  true,
		Seed:           1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 400_000)
	sizes := PowerOfTwoSizes(16*1024, 1024*1024)
	pts, err := MissCurve(accesses, Config{
		LineBytes: 64, Assoc: 8, Policy: LRU, WriteBack: true, WriteAllocate: true,
	}, sizes, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys []float64
	for _, p := range pts {
		xs = append(xs, float64(p.SizeBytes))
		ys = append(ys, p.MissRate())
	}
	fit, err := numeric.LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(-fit.Exponent-wantAlpha) > 0.08 {
		t.Errorf("fitted α = %.3f, want ≈%.2f", -fit.Exponent, wantAlpha)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R² = %.4f, want ≥ 0.98 (power law should be straight in log-log)", fit.R2)
	}
	// §4.2: write backs a roughly constant fraction of misses across sizes.
	ratios := make([]float64, 0, len(pts))
	for _, p := range pts {
		ratios = append(ratios, p.Stats.WriteBackRatio())
	}
	var mean, variance float64
	for _, r := range ratios {
		mean += r / float64(len(ratios))
	}
	for _, r := range ratios {
		variance += (r - mean) * (r - mean) / float64(len(ratios))
	}
	spread := math.Sqrt(variance) / mean
	if spread > 0.1 {
		t.Errorf("write-back ratio not constant: %v (rel spread %.3f)", ratios, spread)
	}
}

// TestMissCurvePhasedIsNotPowerLaw reproduces the paper's observation that
// individual SPEC-like workloads with discrete working sets fit the power
// law poorly: the miss curve collapses once the cache holds the set.
func TestMissCurvePhasedIsNotPowerLaw(t *testing.T) {
	g, err := workload.NewPhased(1024, 100_000, 0, 5, 0, 0) // 64KB working set
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 150_000)
	sizes := []int{16 * 1024, 32 * 1024, 128 * 1024, 256 * 1024}
	pts, err := MissCurve(accesses, Config{LineBytes: 64, Assoc: 8, Policy: LRU, WriteBack: true, WriteAllocate: true}, sizes, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	small := pts[0].MissRate() // cache < working set: ~100% misses (cyclic scan under LRU)
	large := pts[3].MissRate() // cache > working set: ~0
	if small < 0.5 {
		t.Errorf("under-sized cache miss rate = %v, want high", small)
	}
	if large > 0.02 {
		t.Errorf("over-sized cache miss rate = %v, want ≈0", large)
	}
}

func TestAreaModel(t *testing.T) {
	// The paper's baseline: 8 CEAs ≈ 4MB of SRAM L2.
	b, err := CapacityForCEAs(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b != 4*1024*1024 {
		t.Errorf("8 SRAM CEAs = %d bytes, want 4MB", b)
	}
	// DRAM at 8x density.
	b8, err := CapacityForCEAs(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b8 != 32*1024*1024 {
		t.Errorf("8 DRAM CEAs = %d bytes, want 32MB", b8)
	}
	if _, err := CapacityForCEAs(-1, 1); err == nil {
		t.Error("negative area accepted")
	}
	if _, err := CapacityForCEAs(1, 0.5); err == nil {
		t.Error("sub-SRAM density accepted")
	}
}
