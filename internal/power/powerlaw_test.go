package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestPowerLawValidate(t *testing.T) {
	valid := PowerLaw{M0: 0.1, C0: 1024, Alpha: 0.5}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid law rejected: %v", err)
	}
	bad := []PowerLaw{
		{M0: 0, C0: 1, Alpha: 0.5},
		{M0: -1, C0: 1, Alpha: 0.5},
		{M0: 0.1, C0: 0, Alpha: 0.5},
		{M0: 0.1, C0: 1, Alpha: 0},
		{M0: 0.1, C0: 1, Alpha: -0.5},
		{M0: 0.1, C0: 1, Alpha: 2.0},
		{M0: math.Inf(1), C0: 1, Alpha: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid law %+v accepted", i, p)
		}
	}
}

func TestMissRateBaseline(t *testing.T) {
	p := PowerLaw{M0: 0.05, C0: 512, Alpha: 0.5}
	if got := p.MissRate(512); !numeric.AlmostEqual(got, 0.05, 1e-12) {
		t.Errorf("miss rate at C0 = %v, want M0", got)
	}
}

func TestSqrt2Rule(t *testing.T) {
	// The √2 rule: doubling the cache with α=0.5 divides misses by √2.
	p := PowerLaw{M0: 0.1, C0: 1024, Alpha: 0.5}
	ratio := p.MissRate(2048) / p.MissRate(1024)
	if !numeric.AlmostEqual(ratio, 1/math.Sqrt2, 1e-12) {
		t.Errorf("doubling ratio = %v, want 1/√2", ratio)
	}
}

func TestCacheForMissRateInverse(t *testing.T) {
	p := PowerLaw{M0: 0.08, C0: 256, Alpha: 0.37}
	for _, c := range []float64{64, 256, 1000, 8192} {
		m := p.MissRate(c)
		back := p.CacheForMissRate(m)
		if !numeric.AlmostEqual(back, c, 1e-9) {
			t.Errorf("inverse at C=%v: got %v", c, back)
		}
	}
}

func TestHalvingFactor(t *testing.T) {
	// §6.1: halving traffic needs 4x cache at α=0.5, ~2.16x at α=0.9.
	p05 := PowerLaw{M0: 1, C0: 1, Alpha: 0.5}
	if got := p05.HalvingFactor(); !numeric.AlmostEqual(got, 4, 1e-12) {
		t.Errorf("halving factor α=0.5: %v, want 4", got)
	}
	p09 := PowerLaw{M0: 1, C0: 1, Alpha: 0.9}
	if got := p09.HalvingFactor(); math.Abs(got-2.16) > 0.005 {
		t.Errorf("halving factor α=0.9: %v, want ≈2.16", got)
	}
	// And the halving factor actually halves the miss rate.
	if got := p09.MissRate(p09.HalvingFactor()); !numeric.AlmostEqual(got, 0.5, 1e-12) {
		t.Errorf("miss at halving cache: %v, want 0.5", got)
	}
}

func TestWithWriteBacksCancellation(t *testing.T) {
	// Eq. 2: the (1+rwb) factor cancels in ratios, so traffic ratios with
	// and without write backs are identical.
	p := PowerLaw{M0: 0.1, C0: 128, Alpha: 0.62}
	wb := p.WithWriteBacks(0.3)
	if wb.Alpha != p.Alpha || wb.C0 != p.C0 {
		t.Error("write backs must not change the law's shape")
	}
	if !numeric.AlmostEqual(wb.M0, 0.13, 1e-12) {
		t.Errorf("M0 with write backs = %v, want 0.13", wb.M0)
	}
	r1 := p.TrafficRatio(128, 512)
	r2 := wb.TrafficRatio(128, 512)
	if !numeric.AlmostEqual(r1, r2, 1e-12) {
		t.Errorf("ratios differ: %v vs %v", r1, r2)
	}
}

func TestTrafficRatioQuickProperties(t *testing.T) {
	// Properties: monotone decreasing in cache growth; multiplicative
	// composition m(a→c) = m(a→b)·m(b→c).
	p := PowerLaw{M0: 1, C0: 1, Alpha: 0.48}
	prop := func(a8, b8, c8 uint8) bool {
		a := 1 + float64(a8)
		b := a * (1 + float64(b8)/16)
		c := b * (1 + float64(c8)/16)
		grow := p.TrafficRatio(a, c)
		comp := p.TrafficRatio(a, b) * p.TrafficRatio(b, c)
		if !numeric.AlmostEqual(grow, comp, 1e-9) {
			return false
		}
		return c < a || grow <= 1+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerLawIsStraightInLogLog(t *testing.T) {
	// Fig 1's reading: a power law is a straight line in log-log space.
	p := PowerLaw{M0: 0.2, C0: 16, Alpha: AlphaOLTPMax}
	var xs, ys []float64
	for c := 16.0; c <= 16384; c *= 2 {
		xs = append(xs, c)
		ys = append(ys, p.MissRate(c))
	}
	fit, err := numeric.LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(fit.Exponent, -AlphaOLTPMax, 1e-9) {
		t.Errorf("fitted exponent %v, want %v", fit.Exponent, -AlphaOLTPMax)
	}
	if fit.R2 < 1-1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}
