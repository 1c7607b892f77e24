package scaling

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/robust"
	"repro/internal/technique"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(power.Baseline(), 0.5); err != nil {
		t.Errorf("valid solver rejected: %v", err)
	}
	if _, err := New(power.Config{P: 8, C: 0}, 0.5); err == nil {
		t.Error("cacheless baseline must be rejected")
	}
	if _, err := New(power.Baseline(), -1); err == nil {
		t.Error("negative alpha must be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on invalid input")
		}
	}()
	MustNew(power.Baseline(), -1)
}

func TestDefaultSolver(t *testing.T) {
	s := Default()
	if s.Alpha() != power.AlphaDefault {
		t.Errorf("alpha = %v", s.Alpha())
	}
	if s.Base() != power.Baseline() {
		t.Errorf("base = %+v", s.Base())
	}
}

// TestFig2Headline: the next generation (32 CEAs) supports 11 cores at
// constant traffic and 13 at a 50% grown envelope (§5.1).
func TestFig2Headline(t *testing.T) {
	s := Default()
	base := technique.Combine()
	c, err := s.MaxCores(base, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != 11 {
		t.Errorf("cores @B=1: %d, want 11", c)
	}
	c, err = s.MaxCores(base, 32, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if c != 13 {
		t.Errorf("cores @B=1.5: %d, want 13", c)
	}
}

// TestFig3Headline: at 16x scaling only 24 cores (~10% of the die) fit the
// constant-traffic envelope, versus 128 under proportional scaling.
func TestFig3Headline(t *testing.T) {
	s := Default()
	base := technique.Combine()
	c, err := s.MaxCores(base, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != 24 {
		t.Errorf("cores @16x: %d, want 24", c)
	}
	exact, err := s.SupportableCores(base, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	frac := base.Params().CoreArea * exact / 256
	if math.Abs(frac-0.10) > 0.005 {
		t.Errorf("core area fraction = %.3f, want ≈0.10", frac)
	}
	if got := s.ProportionalCores(256); got != 128 {
		t.Errorf("proportional cores = %v, want 128", got)
	}
}

// TestTechniqueHeadlines pins every single-technique core count the paper
// reports for the 32-CEA next generation.
func TestTechniqueHeadlines(t *testing.T) {
	s := Default()
	cases := []struct {
		name string
		st   technique.Stack
		want int
	}{
		{"CC 1.3x", technique.Combine(technique.CacheCompression{Ratio: 1.3}), 11},
		{"CC 1.7x", technique.Combine(technique.CacheCompression{Ratio: 1.7}), 12},
		{"CC 2.0x", technique.Combine(technique.CacheCompression{Ratio: 2.0}), 13},
		{"CC 2.5x", technique.Combine(technique.CacheCompression{Ratio: 2.5}), 14},
		{"CC 3.0x", technique.Combine(technique.CacheCompression{Ratio: 3.0}), 14},
		{"DRAM 4x", technique.Combine(technique.DRAMCache{Density: 4}), 16},
		{"DRAM 8x", technique.Combine(technique.DRAMCache{Density: 8}), 18},
		{"DRAM 16x", technique.Combine(technique.DRAMCache{Density: 16}), 21},
		{"3D SRAM", technique.Combine(technique.ThreeDCache{LayerDensity: 1}), 14},
		{"3D DRAM 8x", technique.Combine(technique.ThreeDCache{LayerDensity: 8}), 25},
		{"3D DRAM 16x", technique.Combine(technique.ThreeDCache{LayerDensity: 16}), 32},
		{"Fltr 40%", technique.Combine(technique.UnusedDataFilter{Unused: 0.4}), 12},
		{"Fltr 80%", technique.Combine(technique.UnusedDataFilter{Unused: 0.8}), 16},
		{"LC 2x", technique.Combine(technique.LinkCompression{Ratio: 2}), 16},
		{"Sect 40%", technique.Combine(technique.SectoredCache{Unused: 0.4}), 14},
		{"SmCl 40%", technique.Combine(technique.SmallCacheLines{Unused: 0.4}), 16},
		{"CC/LC 2x", technique.Combine(technique.CacheLinkCompression{Ratio: 2}), 18},
	}
	for _, tc := range cases {
		got, err := s.MaxCores(tc.st, 32, 1)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: %d cores, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFourthGenerationHeadlines pins the paper's 16x-generation numbers:
// DRAM enables 47 cores, link compression 38, cache compression 30.
func TestFourthGenerationHeadlines(t *testing.T) {
	s := Default()
	cases := []struct {
		name string
		st   technique.Stack
		want int
	}{
		{"BASE", technique.Combine(), 24},
		{"DRAM 8x", technique.Combine(technique.DRAMCache{Density: 8}), 47},
		{"LC 2x", technique.Combine(technique.LinkCompression{Ratio: 2}), 38},
		{"CC 2x", technique.Combine(technique.CacheCompression{Ratio: 2}), 30},
	}
	for _, tc := range cases {
		got, err := s.MaxCores(tc.st, 256, 1)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s @16x: %d cores, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAllCombinedHeadline pins the paper's culminating number: 3D + DRAM +
// cache/link compression + ideal lines support 183 cores (71% of the die)
// at the fourth future generation.
func TestAllCombinedHeadline(t *testing.T) {
	s := Default()
	all := technique.Combine(
		technique.CacheLinkCompression{Ratio: 2},
		technique.DRAMCache{Density: 8},
		technique.ThreeDCache{LayerDensity: 1},
		technique.SmallCacheLines{Unused: 0.4},
	)
	got, err := s.MaxCores(all, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 183 {
		t.Errorf("all-combined @16x: %d cores, want 183", got)
	}
	exact, err := s.SupportableCores(all, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	area := all.Params().CoreArea * exact / 256
	if math.Abs(area-0.71) > 0.01 {
		t.Errorf("core area = %.3f, want ≈0.71", area)
	}
}

func TestSupportableCoresExactFixedPoints(t *testing.T) {
	// DRAM 4x on 32 CEAs solves exactly to P2 = 16 (P^3 = 256(32−P)).
	s := Default()
	got, err := s.SupportableCores(technique.Combine(technique.DRAMCache{Density: 4}), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(got, 16, 1e-6) {
		t.Errorf("exact solution = %v, want 16", got)
	}
	// And MaxCores must not lose the integer to float fuzz.
	c, err := s.MaxCores(technique.Combine(technique.DRAMCache{Density: 4}), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != 16 {
		t.Errorf("MaxCores = %d, want 16", c)
	}
}

func TestSupportableCoresInvalidInputs(t *testing.T) {
	s := Default()
	base := technique.Combine()
	if _, err := s.SupportableCores(base, 0, 1); err == nil {
		t.Error("n2=0 must error")
	}
	if _, err := s.SupportableCores(base, -5, 1); err == nil {
		t.Error("negative n2 must error")
	}
	if _, err := s.SupportableCores(base, 32, 0); err == nil {
		t.Error("budget=0 must error")
	}
	bad := technique.Combine(technique.DataSharing{SharedFrac: -1})
	if _, err := s.SupportableCores(bad, 32, 1); err == nil {
		t.Error("invalid stack params must error")
	}
}

func TestHugeBudgetHitsGeometricLimit(t *testing.T) {
	// With an enormous budget the answer saturates at the die limit.
	s := Default()
	base := technique.Combine()
	got, err := s.SupportableCores(base, 32, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if got < 31.9 || got > 32 {
		t.Errorf("saturated cores = %v, want ≈32", got)
	}
}

// TestExtraDieAllCoresChip: with a 3D cache die the whole processor die
// can be cores and traffic stays finite; when that fits the budget, the
// answer is the die's n2/CoreArea exactly, not a point just below it.
func TestExtraDieAllCoresChip(t *testing.T) {
	s := Default()
	for _, tc := range []struct {
		st         technique.Stack
		n2, budget float64
		want       float64
	}{
		{technique.Combine(technique.ThreeDCache{LayerDensity: 16}), 32, 100, 32},
		{technique.Combine(technique.ThreeDCache{LayerDensity: 64}), 32, 1, 32},
		{technique.Combine(technique.ThreeDCache{LayerDensity: 16}), 256, 100, 256},
		// 4x smaller cores: the die holds 128 of them, and the 64x
		// stacked die gives each 16 CEAs, so traffic is 16·16^-0.5 = 4.
		{technique.Combine(technique.ThreeDCache{LayerDensity: 64}, technique.SmallerCores{AreaFraction: 0.25}), 32, 4, 128},
	} {
		got, err := s.SupportableCores(tc.st, tc.n2, tc.budget)
		if err != nil {
			t.Fatalf("%s: %v", tc.st.Label(), err)
		}
		if got != tc.want {
			t.Errorf("%s on %g CEAs at budget %g: cores = %v, want exactly %v", tc.st.Label(), tc.n2, tc.budget, got, tc.want)
		}
	}
}

func TestTrafficAccessor(t *testing.T) {
	s := Default()
	st := technique.Combine()
	if got := s.Traffic(st, 32, 16); !numeric.AlmostEqual(got, 2, 1e-12) {
		t.Errorf("Traffic(32,16) = %v, want 2", got)
	}
}

func TestSmallerCoresLimit(t *testing.T) {
	// Fig 8: even 80x-smaller cores support only ~12 next-gen cores.
	s := Default()
	for _, f := range []float64{1.0 / 9, 1.0 / 45, 1.0 / 80} {
		c, err := s.MaxCores(technique.Combine(technique.SmallerCores{AreaFraction: f}), 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c < 11 || c > 13 {
			t.Errorf("SmCo %.4f: %d cores, want 11–13 (limited benefit)", f, c)
		}
	}
}

// TestSupportableCoresTinyCores: from a core shrink of about 1e9 the
// die's core capacity n2/CoreArea is so large that a 1e-9 share of it
// already exceeds the budget, so the bracket must step down to the root.
// Every shrink reads 12 cores, and the exact root converges from shrink
// 1e6's as the residual core area vanishes (1.7e-6 higher at 1e300). A
// budget below the traffic of a pure-cache die stays a domain error, with
// a finite minimum traffic in its message.
func TestSupportableCoresTinyCores(t *testing.T) {
	s := Default()
	smco := func(shrink float64) technique.Stack {
		return technique.Combine(technique.SmallerCores{AreaFraction: 1 / shrink})
	}
	prev, err := s.SupportableCores(smco(1e6), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := prev
	for _, k := range []float64{1e9, 1e12, 1e30, 1e300} {
		p, err := s.SupportableCores(smco(k), 32, 1)
		if err != nil {
			t.Fatalf("shrink %g: %v", k, err)
		}
		cores, err := s.MaxCores(smco(k), 32, 1)
		if err != nil {
			t.Fatalf("shrink %g: %v", k, err)
		}
		if cores != 12 || p < prev || p-base > 1e-5 {
			t.Errorf("shrink %g: %d cores (exact %.12f), want 12, at least %.12f and within 1e-5 of shrink 1e6's %.12f", k, cores, p, prev, base)
		}
		prev = p
	}
	_, err = s.SupportableCores(smco(1e300), 32, 1e-30)
	if !errors.Is(err, robust.ErrDomain) || strings.Contains(err.Error(), "Inf") {
		t.Errorf("budget 1e-30 at shrink 1e300: %v, want a domain error without Inf", err)
	}
}

func TestQuickSupportableCoresWithinBudget(t *testing.T) {
	// Property: the returned core count's traffic never exceeds the budget,
	// and one more core always does (when geometrically possible).
	s := Default()
	prop := func(b8, n8 uint8) bool {
		budget := 0.5 + float64(b8)/64 // [0.5, ~4.5]
		n2 := 24 + float64(n8%200)     // [24, 224]
		st := technique.Combine()
		c, err := s.MaxCores(st, n2, budget)
		if err != nil || c < 1 {
			return false
		}
		at := s.Traffic(st, n2, float64(c))
		over := s.Traffic(st, n2, float64(c+1))
		return at <= budget*(1+1e-9) && over > budget*(1-1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMoreBudgetMoreCores(t *testing.T) {
	// Property: supportable cores are monotone in the traffic budget.
	s := Default()
	st := technique.Combine(technique.DRAMCache{Density: 8})
	prop := func(b8 uint8) bool {
		b := 0.5 + float64(b8)/64
		p1, err1 := s.SupportableCores(st, 64, b)
		p2, err2 := s.SupportableCores(st, 64, b*1.25)
		return err1 == nil && err2 == nil && p2 > p1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLargerAlphaMoreCores(t *testing.T) {
	// Fig 17's property: a more cache-sensitive workload (larger α)
	// supports more cores under the same envelope.
	prop := func(a8 uint8) bool {
		aSmall := 0.25 + float64(a8%30)/100
		aLarge := aSmall + 0.07
		sSmall := MustNew(power.Baseline(), aSmall)
		sLarge := MustNew(power.Baseline(), aLarge)
		st := technique.Combine(technique.DRAMCache{Density: 8})
		pSmall, err1 := sSmall.SupportableCores(st, 256, 1)
		pLarge, err2 := sLarge.SupportableCores(st, 256, 1)
		return err1 == nil && err2 == nil && pLarge > pSmall
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickClosedFormCubic: at α = 0.5 with the default baseline and
// budget 1, Eq. 7 reduces to the cubic P³ = 64·(N − P). The solver must
// satisfy it for arbitrary die sizes.
func TestQuickClosedFormCubic(t *testing.T) {
	s := Default()
	prop := func(n8 uint8) bool {
		n2 := 20 + float64(n8)*4 // [20, 1040]
		p, err := s.SupportableCores(technique.Combine(), n2, 1)
		if err != nil {
			return false
		}
		return numeric.AlmostEqual(p*p*p, 64*(n2-p), 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
