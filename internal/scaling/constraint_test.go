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
	pm := st.Params()
	for _, tc := range []struct {
		budget   float64
		compound bool
		gen      int
	}{
		{1, false, 1}, {1.5, false, 3}, {1.3, true, 2}, {1.3, true, 4},
	} {
		want, err := NewEvalCache().SupportableCores(context.Background(), s, st.Params(), 64, func() float64 {
			if tc.compound {
				return math.Pow(tc.budget, float64(tc.gen))
			}
			return tc.budget
		}())
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Bandwidth(tc.budget, tc.compound).Solve(context.Background(), nil, s, pm, 64, tc.gen)
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
// the solution is interior (not the die's geometric capacity).
func TestThermalWallClosedForm(t *testing.T) {
	s := Default()
	for _, st := range []technique.Stack{
		technique.Combine(),
		technique.Combine(technique.DRAMCache{Density: 8}, technique.ThreeDCache{LayerDensity: 1}),
	} {
		pm := st.Params()
		w := ThermalWall{Limit: 3.4, Growth: 1.4}
		for gen := 1; gen <= 4; gen++ {
			n2 := 16 * float64(int(1)<<gen)
			p, err := w.SolveCores(context.Background(), nil, s, pm, n2, gen)
			if err != nil {
				t.Fatalf("gen %d: %v", gen, err)
			}
			if p == n2/pm.CoreArea {
				continue // the die: thermal does not bind within it
			}
			u := w.Usage(s, pm, n2, p, gen)
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
	pm := st.Params()

	// The cache-area floor alone exceeds a tiny limit: unreachable.
	_, err := ThermalWall{Limit: 1e-6}.SolveCores(context.Background(), nil, s, pm, 64, 1)
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("unreachable limit: err = %v, want ErrDomain", err)
	}
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("unreachable limit: err = %v, want mention of unreachability", err)
	}

	// κ so large that swapping cache area for cores lowers density: the
	// "more cores" direction no longer increases usage.
	_, err = ThermalWall{Limit: 2, CachePower: 1.5}.SolveCores(context.Background(), nil, s, pm, 64, 1)
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("non-increasing slope: err = %v, want ErrDomain", err)
	}

	_, err = ThermalWall{Limit: 2}.SolveCores(context.Background(), nil, s, pm, -1, 1)
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("negative area: err = %v, want ErrDomain", err)
	}
}

// TestEnergyWallFloor: an energy limit at or below the cache-access floor
// leaves no budget for traffic — a domain error naming the floor.
func TestEnergyWallFloor(t *testing.T) {
	s := Default()
	st := technique.Combine()
	pm := st.Params()
	_, err := EnergyWall{Limit: 0.5}.SolveCores(context.Background(), NewEvalCache(), s, pm, 64, 1)
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
	pm := st.Params()
	w := EnergyWall{Limit: 2.5}
	c := NewEvalCache()
	p, err := w.SolveCores(context.Background(), c, s, pm, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := DefaultEnergyAccessShare
	budget := (w.Limit - sh*pm.CacheEnergyMult) / ((1 - sh) * pm.LinkEnergyMult)
	want, err := c.SupportableCores(context.Background(), s, pm, 64, budget)
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
	if u := w.Usage(s, pm, 64, p, 1); math.Abs(u-w.Limit) > 1e-9 {
		t.Errorf("usage at solved p = %v, want limit %v", u, w.Limit)
	}
}

// TestConstraintIntersection: the multi-wall solution is the minimum of the
// standalone wall solutions, attributed to the argmin, and its whole count
// is certified against every wall (certificateErr).
func TestConstraintIntersection(t *testing.T) {
	s := Default()
	st := technique.Combine(technique.DRAMCache{Density: 8}, technique.ThreeDCache{LayerDensity: 1})
	pm := st.Params()
	cons := NewConstraint(
		BandwidthWall{Budget: 1},
		ThermalWall{Limit: 3.4, Growth: 1.4},
		EnergyWall{Limit: 3},
	)
	for gen := 1; gen <= 4; gen++ {
		n2 := 16 * float64(int(1)<<gen)
		sol, err := cons.Solve(context.Background(), NewEvalCache(), s, pm, n2, gen)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		min, argmin := math.Inf(1), ""
		for _, wh := range sol.Walls {
			if wh.Exact < min {
				min, argmin = wh.Exact, wh.Kind
			}
		}
		if err := certificateErr(cons, s, pm, n2, gen, sol, true); err != nil {
			t.Errorf("gen %d: %v", gen, err)
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
		pm := st.Params()
		for _, lim := range limits {
			for gen := 1; gen <= 3; gen++ {
				n2 := 16 * float64(int(1)<<gen)
				base := NewConstraint(BandwidthWall{Budget: lim.bw}, ThermalWall{Limit: lim.th, Growth: 1.4}, EnergyWall{Limit: lim.en})
				sol, err := base.Solve(context.Background(), c, s, pm, n2, gen)
				if err != nil {
					t.Fatalf("base solve: %v", err)
				}
				for wi, f := range tighten {
					bw, th, en := f(lim.bw, lim.th, lim.en)
					tight := NewConstraint(BandwidthWall{Budget: bw}, ThermalWall{Limit: th, Growth: 1.4}, EnergyWall{Limit: en})
					tsol, err := tight.Solve(context.Background(), c, s, pm, n2, gen)
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

// TestConstraintSolveMemo: a repeated multi-wall solve reads its
// bandwidth root from the wall memo (one event per memoized wall; the
// closed-form thermal wall counts none), hands each caller its own
// headroom slice, shares wall entries across constraints, and starts over
// after Purge.
func TestConstraintSolveMemo(t *testing.T) {
	s := Default()
	c := NewEvalCache()
	st := technique.Combine(technique.DRAMCache{Density: 8})
	pm := st.Params()
	cons := NewConstraint(BandwidthWall{Budget: 1}, ThermalWall{Limit: 3.4, Growth: 1.4})
	solve := func(c *EvalCache, cons Constraint) (Solution, error) {
		return cons.Solve(context.Background(), c, s, pm, 64, 2)
	}

	sol1, err := solve(c, cons)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first solve: stats = (%d, %d), want (0, 1)", hits, misses)
	}
	sol2, err := solve(c, cons)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("after repeat solve: stats = (%d, %d), want (1, 1)", hits, misses)
	}
	if math.Float64bits(sol1.Exact) != math.Float64bits(sol2.Exact) || sol2.Binding != sol1.Binding {
		t.Errorf("memoized solution drifted: %+v vs %+v", sol1, sol2)
	}
	for i := range sol1.Walls {
		if sol1.Walls[i] != sol2.Walls[i] {
			t.Errorf("wall %d drifted: %+v vs %+v", i, sol1.Walls[i], sol2.Walls[i])
		}
	}
	// Each caller owns its headroom slice: scribbling on one must not
	// reach another caller's solution.
	sol2.Walls[0].Kind = "scribbled"
	sol3, _ := solve(c, cons)
	if sol1.Walls[0].Kind != KindBandwidth || sol3.Walls[0].Kind != KindBandwidth {
		t.Error("solutions share their walls slice")
	}

	// A different constraint's inner bandwidth solve (budget 1 again) hits
	// the wall memo, so hits advance by exactly one while misses stay put.
	preHits, preMisses := c.Stats()
	if _, err := solve(c, Bandwidth(1, false)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != preHits+1 || misses != preMisses {
		t.Errorf("different constraint: stats moved (%d, %d) -> (%d, %d), want inner-hit only", preHits, preMisses, hits, misses)
	}

	if n := c.Purge(); n != 1 {
		t.Errorf("Purge dropped %d entries, want the one wall solve", n)
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("entries after Purge = %d, want 0", c.Info(0).Entries)
	}
	_, preMisses = c.Stats()
	if _, err := solve(c, cons); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != preMisses+1 || c.Info(0).Entries != 1 {
		t.Errorf("post-purge solve: %d misses, %d entries; want one fresh miss, cached", misses-preMisses, c.Info(0).Entries)
	}

	// Nil cache: uncached but correct.
	sol4, err := solve(nil, cons)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sol4.Exact) != math.Float64bits(sol1.Exact) {
		t.Errorf("nil-cache solve %v != cached solve %v", sol4.Exact, sol1.Exact)
	}

	// An empty constraint is a domain error.
	if _, err := solve(c, Constraint{}); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("empty constraint: err = %v, want ErrDomain", err)
	}
}
