package scaling

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/technique"
)

func TestGenerations(t *testing.T) {
	gens := Generations(16, 4)
	if len(gens) != 4 {
		t.Fatalf("len = %d", len(gens))
	}
	wantRatios := []float64{2, 4, 8, 16}
	for i, g := range gens {
		if g.Ratio != wantRatios[i] {
			t.Errorf("gen %d ratio = %v, want %v", i, g.Ratio, wantRatios[i])
		}
		if g.N != 16*wantRatios[i] {
			t.Errorf("gen %d N = %v", i, g.N)
		}
		if g.Index != i+1 {
			t.Errorf("gen %d index = %d", i, g.Index)
		}
	}
	if !strings.Contains(gens[3].String(), "16x") {
		t.Errorf("String() = %q", gens[3].String())
	}
}

func TestScalingRatios(t *testing.T) {
	gens := ScalingRatios(16, []float64{1, 2, 4, 8, 16, 32, 64, 128})
	if len(gens) != 8 {
		t.Fatalf("len = %d", len(gens))
	}
	if gens[0].N != 16 || gens[7].N != 2048 {
		t.Errorf("endpoints: %v, %v", gens[0].N, gens[7].N)
	}
}

// TestBaseGenerationSweep pins the BASE row of Fig 15: 11/14/19/24 cores
// across the four future generations at constant traffic.
func TestBaseGenerationSweep(t *testing.T) {
	s := Default()
	pts, err := s.SweepGenerations(technique.Combine(), Generations(16, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{11, 14, 19, 24}
	for i, p := range pts {
		if p.Cores != want[i] {
			t.Errorf("gen %d: %d cores, want %d", i+1, p.Cores, want[i])
		}
		if p.Proportional != 8*p.Gen.Ratio {
			t.Errorf("gen %d proportional = %v", i+1, p.Proportional)
		}
		if p.AreaFraction <= 0 || p.AreaFraction >= 1 {
			t.Errorf("gen %d area fraction = %v", i+1, p.AreaFraction)
		}
	}
	// Die area for cores declines every generation (Fig 3's message).
	for i := 1; i < len(pts); i++ {
		if pts[i].AreaFraction >= pts[i-1].AreaFraction {
			t.Errorf("area fraction not declining: %v then %v",
				pts[i-1].AreaFraction, pts[i].AreaFraction)
		}
	}
}

func TestSweepGenerationsCompoundingBudget(t *testing.T) {
	// With budgetPerGen = 1.5 the envelope compounds: gen g gets 1.5^g.
	s := Default()
	pts, err := s.SweepGenerations(technique.Combine(), Generations(16, 2), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// Gen 1 at B=1.5 is the paper's 13-core case.
	if pts[0].Cores != 13 {
		t.Errorf("gen 1 @B=1.5: %d cores, want 13", pts[0].Cores)
	}
	// Gen 2 must use 2.25x, which beats the constant-envelope answer.
	flat, err := s.MaxCores(technique.Combine(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Cores <= flat {
		t.Errorf("compounded budget gen 2 = %d, want > %d", pts[1].Cores, flat)
	}
}

// TestDRAMCandles pins Fig 5's DRAM candles: pessimistic 16, realistic
// 18, optimistic 21 cores at the first generation, the paper's realistic
// 47 at 16x, and pess ≤ real ≤ opt at every generation.
func TestDRAMCandles(t *testing.T) {
	s := Default()
	var entry technique.CatalogEntry
	for _, e := range technique.Catalog {
		if e.Label == "DRAM" {
			entry = e
		}
	}
	if entry.New == nil {
		t.Fatal("DRAM missing from catalog")
	}
	var candles [][3]int
	for _, g := range Generations(16, 4) {
		var c [3]int
		for i, a := range technique.Assumptions {
			cores, err := s.MaxCores(technique.Combine(entry.New(a)), g.N, 1)
			if err != nil {
				t.Fatalf("%s at %s: %v", a, g, err)
			}
			c[i] = cores
		}
		candles = append(candles, c)
	}
	if c := candles[0]; c != [3]int{16, 18, 21} {
		t.Errorf("gen-1 DRAM candle = %v, want [16 18 21]", c)
	}
	if candles[3][1] != 47 {
		t.Errorf("gen-4 DRAM realistic = %d, want 47", candles[3][1])
	}
	for i, c := range candles {
		if !(c[0] <= c[1] && c[1] <= c[2]) {
			t.Errorf("gen %d candle out of order: %v", i+1, c)
		}
	}
}

// TestEnvelopeIntersection: Fig 2's intersection of the "New Traffic"
// curve with the constant envelope is the bandwidth constraint's solve on
// the empty stack: 11 whole cores on 32 CEAs.
func TestEnvelopeIntersection(t *testing.T) {
	sol, err := Bandwidth(1, false).Solve(context.Background(), nil, Default(), technique.Combine().Params(), 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Floor(sol.Exact) != 11 || sol.Cores != 11 {
		t.Errorf("intersection = %v (%d cores), want ⌊·⌋ = 11", sol.Exact, sol.Cores)
	}
}

// TestBreakEvenSharing pins Fig 13: the sharing fraction needed to keep
// proportional scaling within the constant envelope is ≈40/63/77/86% for
// 16/32/64/128 cores.
func TestBreakEvenSharing(t *testing.T) {
	s := Default()
	cases := []struct {
		cores float64
		want  float64
		tol   float64
	}{
		{16, 0.40, 0.01},
		{32, 0.63, 0.01},
		{64, 0.77, 0.01},
		{128, 0.86, 0.015},
	}
	for _, tc := range cases {
		n2 := 2 * tc.cores // proportional scaling keeps half the die as cache
		got, err := s.BreakEvenSharing(n2, tc.cores, 1)
		if err != nil {
			t.Errorf("%v cores: %v", tc.cores, err)
			continue
		}
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%v cores: break-even f_sh = %.3f, want ≈%.2f", tc.cores, got, tc.want)
		}
	}
}

func TestBreakEvenSharingEdgeCases(t *testing.T) {
	s := Default()
	// Already under budget: zero sharing needed.
	got, err := s.BreakEvenSharing(32, 4, 1)
	if err != nil || got != 0 {
		t.Errorf("under-budget case: %v, %v", got, err)
	}
	// Geometrically absurd: even full sharing can't fix a near-cacheless chip.
	if _, err := s.BreakEvenSharing(32, 31.9, 0.001); err == nil {
		t.Error("want error when full sharing cannot meet the budget")
	}
	// Invalid cores.
	if _, err := s.BreakEvenSharing(32, 0, 1); err == nil {
		t.Error("want error for p2=0")
	}
	if _, err := s.BreakEvenSharing(32, 32, 1); err == nil {
		t.Error("want error for p2=n2")
	}
}

// TestEnvelopeIntersectionEdgeCases: the bandwidth constraint's solve
// on the empty stack fails with domain errors on bad inputs and an
// unreachable budget, and with a Canceled error on a canceled context.
func TestEnvelopeIntersectionEdgeCases(t *testing.T) {
	s := Default()
	ctx := context.Background()
	base := technique.Combine().Params()
	solve := func(ctx context.Context, n2, budget float64) (Solution, error) {
		return Bandwidth(budget, false).Solve(ctx, nil, s, base, n2, 0)
	}

	// Non-bracketing budget: even a near-zero-core chip exceeds it (traffic
	// ~ p^(1+α) at the bracket's low end, but never zero), so the solve
	// fails before root finding with a permanent domain error.
	if _, err := solve(ctx, 32, 1e-18); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("unreachable budget: err = %v, want robust.ErrDomain", err)
	} else if robust.Classify(err) != robust.Permanent {
		t.Errorf("unreachable budget classified %v, want Permanent", robust.Classify(err))
	}

	// Invalid inputs propagate ErrDomain too.
	if _, err := solve(ctx, -4, 1); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("negative n2: err = %v, want robust.ErrDomain", err)
	}
	if _, err := solve(ctx, 32, 0); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("zero budget: err = %v, want robust.ErrDomain", err)
	}

	// Canceled context mid-solve: classified Canceled, never Permanent, so
	// callers retry rather than discard the case.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := solve(canceled, 32, 1)
	if err == nil {
		t.Fatal("canceled context: want error")
	}
	if robust.Classify(err) != robust.Canceled {
		t.Errorf("canceled context classified %v (err %v), want Canceled", robust.Classify(err), err)
	}

	// A live context still solves (the canceled run left no bad state).
	sol, err := solve(ctx, 32, 1)
	if err != nil || sol.Cores != 11 {
		t.Errorf("post-cancel solve = %+v, %v; want 11 cores", sol, err)
	}
}

func TestBreakEvenSharingCtxEdgeCases(t *testing.T) {
	s := Default()

	// Non-bracketing budget: full sharing still exceeds it → ErrDomain.
	if _, err := s.BreakEvenSharingCtx(context.Background(), 32, 31.9, 0.001); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("hopeless budget: err = %v, want robust.ErrDomain", err)
	}
	// Out-of-range cores → ErrDomain.
	for _, p2 := range []float64{0, -1, 32, 40} {
		if _, err := s.BreakEvenSharingCtx(context.Background(), 32, p2, 1); !errors.Is(err, robust.ErrDomain) {
			t.Errorf("p2=%g: err = %v, want robust.ErrDomain", p2, err)
		}
	}

	// Canceled context mid-solve. Pick inputs that genuinely bracket a root
	// (16 cores on 32 CEAs needs ≈40% sharing) so the failure comes from the
	// root finder honouring ctx, not from an early domain check.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.BreakEvenSharingCtx(canceled, 32, 16, 1)
	if err == nil {
		t.Fatal("canceled context: want error")
	}
	if robust.Classify(err) != robust.Canceled {
		t.Errorf("canceled context classified %v (err %v), want Canceled", robust.Classify(err), err)
	}

	// Same inputs, live context: succeeds at the Fig 13 value.
	fsh, err := s.BreakEvenSharingCtx(context.Background(), 32, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fsh-0.40) > 0.01 {
		t.Errorf("f_sh = %v, want ≈0.40", fsh)
	}
}

func TestSharingRequirementGrowsWithScaling(t *testing.T) {
	// Fig 13's message: each generation needs a *larger* shared fraction,
	// the opposite of measured application behaviour (Fig 14).
	s := Default()
	prev := -1.0
	for _, cores := range []float64{16, 32, 64, 128} {
		fsh, err := s.BreakEvenSharing(2*cores, cores, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fsh <= prev {
			t.Errorf("break-even f_sh not increasing: %v after %v", fsh, prev)
		}
		prev = fsh
	}
}

// TestSweepSolvesEachGenerationOnce: a sweep runs one root solve per
// generation. Every solve passes the scaling.solve fault point once, so a
// no-op sleep fault counts the solves.
func TestSweepSolvesEachGenerationOnce(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.Default()
	obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	plan, err := robust.ParsePlan("scaling.solve=sleep:0s x*")
	if err != nil {
		t.Fatal(err)
	}
	defer robust.SetInjector(robust.NewInjector(plan))()

	s := Default()
	pts, err := s.SweepGenerations(technique.Combine(technique.DRAMCache{Density: 8}), Generations(s.Base().N(), 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	if got := reg.Counter(robust.MetricFaultsInjected).Value(); got != 4 {
		t.Errorf("%d solves for a 4-generation sweep, want one per generation", got)
	}
}
