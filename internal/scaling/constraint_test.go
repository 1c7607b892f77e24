package scaling

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/robust"
	"repro/internal/technique"
)

// TestBandwidthWallBitIdentity: a bandwidth-only constraint must reproduce
// the legacy single-envelope solver bit for bit — same root, same memoized
// path — including per-generation compounding.
func TestBandwidthWallBitIdentity(t *testing.T) {
	s := Default()
	st := technique.Combine(technique.DRAMCache{Density: 8})
	fp := FingerprintOf(st)
	for _, tc := range []struct {
		budget   float64
		compound bool
		gen      int
	}{
		{1, false, 1}, {1.5, false, 3}, {1.3, true, 2}, {1.3, true, 4},
	} {
		want, err := NewEvalCache().SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 64, func() float64 {
			if tc.compound {
				return math.Pow(tc.budget, float64(tc.gen))
			}
			return tc.budget
		}())
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Bandwidth(tc.budget, tc.compound).SolveFP(context.Background(), nil, s, fp, st, 64, tc.gen)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sol.Exact) != math.Float64bits(want) {
			t.Errorf("budget=%g compound=%t gen=%d: constraint %v != legacy %v", tc.budget, tc.compound, tc.gen, sol.Exact, want)
		}
		if sol.Binding != KindBandwidth {
			t.Errorf("binding = %q, want bandwidth", sol.Binding)
		}
	}
}

// TestThermalWallClosedForm: the closed-form thermal solve must land exactly
// on the wall — Usage at the solved core count equals the limit — whenever
// the solution is interior (not clamped at the die's geometric capacity).
func TestThermalWallClosedForm(t *testing.T) {
	s := Default()
	for _, st := range []technique.Stack{
		technique.Combine(),
		technique.Combine(technique.DRAMCache{Density: 8}, technique.ThreeDCache{LayerDensity: 1}),
	} {
		fp := FingerprintOf(st)
		w := ThermalWall{Limit: 3.4, Growth: 1.4}
		for gen := 1; gen <= 4; gen++ {
			n2 := 16 * float64(int(1)<<gen)
			p, err := w.SolveCores(context.Background(), nil, s, fp, st, n2, gen)
			if err != nil {
				t.Fatalf("gen %d: %v", gen, err)
			}
			if hi := n2 / fp.Params.CoreArea * (1 - 1e-12); p == hi {
				continue // clamped: thermal does not bind within the die
			}
			u := w.Usage(s, fp.Params, n2, p, gen)
			if math.Abs(u-w.LimitAt(gen)) > 1e-9 {
				t.Errorf("gen %d: usage at solved p = %v, want limit %v", gen, u, w.LimitAt(gen))
			}
		}
	}
}

// TestThermalWallDomainErrors: an unreachably tight limit and a
// non-increasing usage slope are domain errors, not NaN cores.
func TestThermalWallDomainErrors(t *testing.T) {
	s := Default()
	st := technique.Combine()
	fp := FingerprintOf(st)

	// The cache-area floor alone exceeds a tiny limit: unreachable.
	_, err := ThermalWall{Limit: 1e-6}.SolveCores(context.Background(), nil, s, fp, st, 64, 1)
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("unreachable limit: err = %v, want ErrDomain", err)
	}
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("unreachable limit: err = %v, want mention of unreachability", err)
	}

	// κ so large that swapping cache area for cores lowers density: the
	// "more cores" direction no longer increases usage.
	_, err = ThermalWall{Limit: 2, CachePower: 1.5}.SolveCores(context.Background(), nil, s, fp, st, 64, 1)
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("non-increasing slope: err = %v, want ErrDomain", err)
	}

	_, err = ThermalWall{Limit: 2}.SolveCores(context.Background(), nil, s, fp, st, -1, 1)
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("negative area: err = %v, want ErrDomain", err)
	}
}

// TestEnergyWallFloor: an energy limit at or below the cache-access floor
// leaves no budget for traffic — a domain error naming the floor.
func TestEnergyWallFloor(t *testing.T) {
	s := Default()
	st := technique.Combine()
	fp := FingerprintOf(st)
	_, err := EnergyWall{Limit: 0.5}.SolveCores(context.Background(), NewEvalCache(), s, fp, st, 64, 1)
	if !errors.Is(err, robust.ErrDomain) {
		t.Fatalf("err = %v, want ErrDomain", err)
	}
	if !strings.Contains(err.Error(), "cache-access floor") {
		t.Errorf("err = %v, want mention of the cache-access floor", err)
	}
}

// TestEnergyWallReduction: the energy solve is a traffic solve at the
// effective budget (L/G − w·Ecache)/((1−w)·Elink) — verify against a direct
// bandwidth solve at that budget, and that usage lands on the limit.
func TestEnergyWallReduction(t *testing.T) {
	s := Default()
	st := technique.Combine(technique.DRAMCache{Density: 8})
	fp := FingerprintOf(st)
	w := EnergyWall{Limit: 2.5}
	c := NewEvalCache()
	p, err := w.SolveCores(context.Background(), c, s, fp, st, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := DefaultEnergyAccessShare
	budget := (w.Limit - sh*fp.Params.CacheEnergyMult) / ((1 - sh) * fp.Params.LinkEnergyMult)
	want, err := c.SupportableCoresFP(context.Background(), s, fp, st, 64, budget)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(p) != math.Float64bits(want) {
		t.Errorf("energy solve %v != bandwidth solve at effective budget %g: %v", p, budget, want)
	}
	// The reduction shares the memo: two solves, one real root find.
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1): reduction did not share the memo", hits, misses)
	}
	if u := w.Usage(s, fp.Params, 64, p, 1); math.Abs(u-w.Limit) > 1e-9 {
		t.Errorf("usage at solved p = %v, want limit %v", u, w.Limit)
	}
}

// TestConstraintIntersection: the multi-wall solution is the minimum of the
// standalone wall solutions, attributed to the argmin, with (near-)zero
// headroom on the binding wall and non-negative headroom everywhere.
func TestConstraintIntersection(t *testing.T) {
	s := Default()
	st := technique.Combine(technique.DRAMCache{Density: 8}, technique.ThreeDCache{LayerDensity: 1})
	fp := FingerprintOf(st)
	cons := NewConstraint(
		BandwidthWall{Budget: 1},
		ThermalWall{Limit: 3.4, Growth: 1.4},
		EnergyWall{Limit: 3},
	)
	for gen := 1; gen <= 4; gen++ {
		n2 := 16 * float64(int(1)<<gen)
		sol, err := cons.SolveFP(context.Background(), NewEvalCache(), s, fp, st, n2, gen)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		min, argmin := math.Inf(1), ""
		for _, wh := range sol.Walls {
			if wh.Exact < min {
				min, argmin = wh.Exact, wh.Kind
			}
			if wh.Headroom < -1e-9 {
				t.Errorf("gen %d: wall %s has negative headroom %v at the intersection", gen, wh.Kind, wh.Headroom)
			}
		}
		if sol.Exact != min || sol.Binding != argmin {
			t.Errorf("gen %d: solution (%v, %s) != wall minimum (%v, %s)", gen, sol.Exact, sol.Binding, min, argmin)
		}
	}
}

// TestConstraintTighteningMonotone: tightening any single wall never
// increases the solved core count — the acceptance property for the
// intersection semantics. Swept across stacks, generations, and walls.
func TestConstraintTighteningMonotone(t *testing.T) {
	s := Default()
	stacks := []technique.Stack{
		technique.Combine(),
		technique.Combine(technique.CacheLinkCompression{Ratio: 2}, technique.DRAMCache{Density: 8}),
		technique.Combine(technique.DRAMCache{Density: 8}, technique.ThreeDCache{LayerDensity: 1}),
	}
	limits := []struct{ bw, th, en float64 }{
		{1, 3.4, 3}, {1.5, 5, 2.5}, {2, 2.5, 4},
	}
	tighten := []func(bw, th, en float64) (float64, float64, float64){
		func(bw, th, en float64) (float64, float64, float64) { return bw * 0.8, th, en },
		func(bw, th, en float64) (float64, float64, float64) { return bw, th * 0.8, en },
		func(bw, th, en float64) (float64, float64, float64) { return bw, th, en*0.8 + 0.2*0.6*1.5 }, // keep above the access floor
	}
	c := NewEvalCache()
	for _, st := range stacks {
		fp := FingerprintOf(st)
		for _, lim := range limits {
			for gen := 1; gen <= 3; gen++ {
				n2 := 16 * float64(int(1)<<gen)
				base := NewConstraint(BandwidthWall{Budget: lim.bw}, ThermalWall{Limit: lim.th, Growth: 1.4}, EnergyWall{Limit: lim.en})
				sol, err := base.SolveFP(context.Background(), c, s, fp, st, n2, gen)
				if err != nil {
					t.Fatalf("base solve: %v", err)
				}
				for wi, f := range tighten {
					bw, th, en := f(lim.bw, lim.th, lim.en)
					tight := NewConstraint(BandwidthWall{Budget: bw}, ThermalWall{Limit: th, Growth: 1.4}, EnergyWall{Limit: en})
					tsol, err := tight.SolveFP(context.Background(), c, s, fp, st, n2, gen)
					if errors.Is(err, robust.ErrDomain) {
						continue // tightened past feasibility: zero cores, trivially monotone
					}
					if err != nil {
						t.Fatalf("tightened solve: %v", err)
					}
					if tsol.Exact > sol.Exact {
						t.Errorf("stack %v gen %d: tightening wall %d raised cores %v -> %v", st, gen, wi, sol.Exact, tsol.Exact)
					}
				}
			}
		}
	}
}

// TestConstraintFingerprintDistinct: kinds, parameters, wall count, and
// order must all separate constraint fingerprints; equal sets must collide.
func TestConstraintFingerprintDistinct(t *testing.T) {
	cs := []Constraint{
		Bandwidth(1, false),
		Bandwidth(1, true),
		Bandwidth(1.5, false),
		NewConstraint(ThermalWall{Limit: 1}),
		NewConstraint(EnergyWall{Limit: 1}),
		NewConstraint(ThermalWall{Limit: 1, Growth: 1.4}),
		NewConstraint(ThermalWall{Limit: 1, CachePower: 0.2}),
		NewConstraint(EnergyWall{Limit: 1, AccessShare: 0.5}),
		NewConstraint(BandwidthWall{Budget: 1}, ThermalWall{Limit: 3}),
		NewConstraint(ThermalWall{Limit: 3}, BandwidthWall{Budget: 1}),
	}
	seen := map[uint64]int{}
	for i, c := range cs {
		h := c.Fingerprint()
		if j, dup := seen[h]; dup {
			t.Errorf("constraints %d and %d collide on %#x", j, i, h)
		}
		seen[h] = i
	}
	a := NewConstraint(BandwidthWall{Budget: 2}, EnergyWall{Limit: 3})
	b := NewConstraint(BandwidthWall{Budget: 2}, EnergyWall{Limit: 3})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal constraints fingerprint differently")
	}
}

// TestSolveConstraintFPMemo: repeated multi-wall solves hit the
// solution-level memo (one event per solve), different constraints miss,
// and Purge drops the stored solutions.
func TestSolveConstraintFPMemo(t *testing.T) {
	s := Default()
	c := NewEvalCache()
	st := technique.Combine(technique.DRAMCache{Density: 8})
	fp := FingerprintOf(st)
	cons := NewConstraint(BandwidthWall{Budget: 1}, ThermalWall{Limit: 3.4, Growth: 1.4})

	sol1, err := c.SolveConstraintFP(context.Background(), s, fp, st, 64, cons, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first solve: stats = (%d, %d), want (0, 1)", hits, misses)
	}
	sol2, err := c.SolveConstraintFP(context.Background(), s, fp, st, 64, cons, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("after repeat solve: stats = (%d, %d), want (1, 1)", hits, misses)
	}
	if math.Float64bits(sol1.Exact) != math.Float64bits(sol2.Exact) || sol2.Binding != sol1.Binding {
		t.Errorf("memoized solution drifted: %+v vs %+v", sol1, sol2)
	}
	// The memo hands out private headroom slices: a caller scribbling on
	// one must not corrupt the cached solution.
	sol2.Walls[0].Kind = "scribbled"
	sol3, _ := c.SolveConstraintFP(context.Background(), s, fp, st, 64, cons, 2)
	if sol3.Walls[0].Kind != KindBandwidth {
		t.Error("cached solution shares its walls slice with callers")
	}

	// A different constraint misses the solution memo — but its inner
	// bandwidth solve (budget 1 again) hits the shared traffic memo, so
	// hits advance by exactly one while misses stay put.
	preHits, preMisses := c.Stats()
	if _, err := c.SolveConstraintFP(context.Background(), s, fp, st, 64, Bandwidth(1, false), 2); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != preHits+1 || misses != preMisses {
		t.Errorf("different constraint: stats moved (%d, %d) -> (%d, %d), want inner-hit only", preHits, preMisses, hits, misses)
	}

	if n := c.Purge(); n == 0 {
		t.Error("Purge dropped nothing")
	}
	if _, err := c.SolveConstraintFP(context.Background(), s, fp, st, 64, cons, 2); err != nil {
		t.Fatal(err)
	}
	if c.Info(0).Entries == 0 {
		t.Error("post-purge solve cached nothing")
	}

	// Nil receiver: uncached but correct.
	var nc *EvalCache
	sol4, err := nc.SolveConstraintFP(context.Background(), s, fp, st, 64, cons, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sol4.Exact) != math.Float64bits(sol1.Exact) {
		t.Errorf("nil-cache solve %v != cached solve %v", sol4.Exact, sol1.Exact)
	}

	// An empty constraint is a domain error, never cached.
	if _, err := c.SolveConstraintFP(context.Background(), s, fp, st, 64, Constraint{}, 2); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("empty constraint: err = %v, want ErrDomain", err)
	}
}
