package optimize

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/technique"
)

// testSpec is a small exhaustive search: 4 catalog entries, two of them
// mutually exclusive via the CC/LC dual group.
const testSpec = `{
  "id": "opt-test", "n2": 32,
  "catalog": [
    {"name": "Fltr", "params": {"unused": 0.4}, "cost": 1},
    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
    {"name": "CC/LC", "params": {"ratio": 2}, "cost": 3},
    {"name": "DRAM", "params": {"density": 8}, "cost": 4}
  ]
}`

func mustSearch(t *testing.T, o *Optimizer, spec string) *Result {
	t.Helper()
	osp, err := scenario.ParseOptimizeSpec([]byte(spec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := o.Search(context.Background(), osp)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	return res
}

// TestFrontierProperty checks the Pareto contract against brute-force
// enumeration: no frontier point is dominated by any candidate, and every
// non-dominated (value, cost) pair appears on the frontier.
func TestFrontierProperty(t *testing.T) {
	for _, objective := range []string{"cores", "exact"} {
		spec := strings.Replace(testSpec, `"n2": 32,`, fmt.Sprintf(`"n2": 32, "objective": %q,`, objective), 1)
		res := mustSearch(t, New(), spec)
		if len(res.Points) == 0 || len(res.Frontier) == 0 {
			t.Fatalf("objective %s: no candidates or empty frontier", objective)
		}
		for _, f := range res.Frontier {
			for _, p := range res.Points {
				if Dominates(objective, p, f) {
					t.Errorf("objective %s: frontier point %q cost=%g dominated by %q split=%g cost=%g",
						objective, f.Label, f.Cost, p.Label, p.Split, p.Cost)
				}
			}
		}
		// Every non-dominated candidate's (value, cost) pair must be on the
		// frontier (the frontier dedupes equal pairs, so compare by pair).
		onFrontier := map[[2]float64]bool{}
		for _, f := range res.Frontier {
			onFrontier[[2]float64{objectiveValue(objective, f), f.Cost}] = true
		}
		for _, p := range res.Points {
			dominated := false
			for _, q := range res.Points {
				if Dominates(objective, q, p) {
					dominated = true
					break
				}
			}
			if !dominated && !onFrontier[[2]float64{objectiveValue(objective, p), p.Cost}] {
				t.Errorf("objective %s: non-dominated candidate %q split=%g cost=%g missing from frontier",
					objective, p.Label, p.Split, p.Cost)
			}
		}
		// The best design must match brute-force argmax with the documented
		// tie-breaks (higher value, then lower cost).
		best := res.Points[0]
		for _, p := range res.Points[1:] {
			v, bv := objectiveValue(objective, p), objectiveValue(objective, best)
			if v > bv || (v == bv && p.Cost < best.Cost) {
				best = p
			}
		}
		if objectiveValue(objective, res.Best) != objectiveValue(objective, best) || res.Best.Cost != best.Cost {
			t.Errorf("objective %s: best %q (%g @ cost %g) != brute-force %q (%g @ cost %g)",
				objective, res.Best.Label, objectiveValue(objective, res.Best), res.Best.Cost,
				best.Label, objectiveValue(objective, best), best.Cost)
		}
	}
}

// TestExclusionGroups verifies the compatibility rules: no candidate stack
// combines two entries of one group, and CC/LC never stacks with CC or LC.
func TestExclusionGroups(t *testing.T) {
	spec := `{
	  "id": "opt-groups", "n2": 32,
	  "catalog": [
	    {"name": "CC", "params": {"ratio": 2}, "cost": 1},
	    {"name": "LC", "params": {"ratio": 2}, "cost": 1},
	    {"name": "CC/LC", "params": {"ratio": 2}, "cost": 1},
	    {"name": "DRAM", "params": {"density": 4}, "cost": 1, "group": "mem"},
	    {"name": "DRAM", "params": {"density": 8}, "cost": 2, "group": "mem"}
	  ]
	}`
	res := mustSearch(t, New(), spec)
	for _, p := range res.Points {
		names := map[string]int{}
		for _, sp := range p.Stack {
			names[sp.Name]++
		}
		if names["DRAM"] > 1 {
			t.Errorf("stack %q combines two mem-group DRAM variants", p.Label)
		}
		if names["CC/LC"] > 0 && (names["CC"] > 0 || names["LC"] > 0) {
			t.Errorf("stack %q combines CC/LC with CC or LC", p.Label)
		}
	}
	// 5 entries, 2^5=32 raw subsets; the two DRAM variants exclude each
	// other and CC/LC excludes CC and LC.
	want := 0
	for mask := 0; mask < 32; mask++ {
		cc, lc, cclc := mask&1 != 0, mask&2 != 0, mask&4 != 0
		d4, d8 := mask&8 != 0, mask&16 != 0
		if (d4 && d8) || (cclc && (cc || lc)) {
			continue
		}
		want++
	}
	if res.Stacks != want {
		t.Errorf("eligible stacks = %d, want %d", res.Stacks, want)
	}
}

// TestStackConstraints verifies max_techniques and max_cost pruning.
func TestStackConstraints(t *testing.T) {
	spec := `{
	  "id": "opt-bounds", "n2": 32, "max_techniques": 1, "max_cost": 2,
	  "catalog": [
	    {"name": "Fltr", "params": {"unused": 0.4}, "cost": 1},
	    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
	    {"name": "DRAM", "params": {"density": 8}, "cost": 4}
	  ]
	}`
	res := mustSearch(t, New(), spec)
	if res.Stacks != 3 { // BASE, Fltr, LC — DRAM exceeds max_cost
		t.Fatalf("eligible stacks = %d, want 3", res.Stacks)
	}
	for _, p := range res.Points {
		if len(p.Stack) > 1 {
			t.Errorf("stack %q exceeds max_techniques=1", p.Label)
		}
		if p.Cost > 2 {
			t.Errorf("stack %q cost %g exceeds max_cost=2", p.Label, p.Cost)
		}
	}
}

// TestDeterministicAcrossWorkers pins result ordering independent of
// scheduling: a serial search and a wide-pool search must agree exactly.
func TestDeterministicAcrossWorkers(t *testing.T) {
	serial := mustSearch(t, &Optimizer{Workers: 1}, testSpec)
	wide := mustSearch(t, &Optimizer{Workers: 8}, testSpec)
	if len(serial.Points) != len(wide.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(wide.Points))
	}
	for i := range serial.Points {
		a, b := serial.Points[i], wide.Points[i]
		if a.Label != b.Label || a.Split != b.Split || a.Cores != b.Cores || a.Exact != b.Exact || a.Binding != b.Binding {
			t.Fatalf("point %d differs: %+v vs %+v", i, a, b)
		}
	}
	if serial.Best.Label != wide.Best.Label || len(serial.Frontier) != len(wide.Frontier) {
		t.Fatalf("best/frontier differ across worker counts")
	}
}

// TestSearchCancellation verifies the pool honors context cancellation.
func TestSearchCancellation(t *testing.T) {
	osp, err := scenario.ParseOptimizeSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = New().Search(ctx, osp)
	if err == nil || robust.Classify(err) != robust.Canceled {
		t.Fatalf("want canceled error, got %v", err)
	}
}

// TestCacheReuse verifies a repeated search resolves entirely from the
// shared solver cache.
func TestCacheReuse(t *testing.T) {
	o := New()
	mustSearch(t, o, testSpec)
	_, misses := o.Cache.Stats()
	if misses == 0 {
		t.Fatalf("first search should miss the cold cache")
	}
	mustSearch(t, o, testSpec)
	if _, after := o.Cache.Stats(); after != misses {
		t.Fatalf("second search missed %d times, want 0", after-misses)
	}
}

// TestOneStackMatchesEval: a design point is what eval reports for its
// stack. For every registry technique at each of its three default
// assumptions, plus 3D at density 16, optimize over a one-entry catalog
// on 32 CEAs under a unit bandwidth envelope gives the technique's point
// the cores, exact, binding and walls that eval of the same stack gives
// on the same chip and walls.
func TestOneStackMatchesEval(t *testing.T) {
	stacks := []technique.Spec{{Name: "3D", Params: map[string]float64{"density": 16}}}
	for _, b := range technique.Builders {
		for _, a := range technique.Assumptions {
			stacks = append(stacks, technique.Spec{Name: b.Name, Params: b.Defaults(a)})
		}
	}
	ctx := context.Background()
	budget := scenario.Budget{Envelope: 1}
	eng := scenario.NewEngine()
	for _, st := range stacks {
		res, err := New().Search(ctx, &scenario.OptimizeSpec{ID: "one", N2: 32, Budget: budget,
			Catalog: []scenario.CatalogEntry{{Name: st.Name, Params: st.Params}}})
		if err != nil {
			t.Fatalf("%s: optimize: %v", st, err)
		}
		out, err := eng.Evaluate(ctx, &scenario.Spec{ID: "one", Budget: budget,
			Axis: scenario.Axis{N2: []float64{32}}, Cases: []scenario.Case{{Stack: []technique.Spec{st}}}})
		if err != nil {
			t.Fatalf("%s: eval: %v", st, err)
		}
		// The technique's best point; Points also holds BASE.
		var got DesignPoint
		for _, p := range res.Points {
			if len(p.Stack) == 1 && p.Exact > got.Exact {
				got = p
			}
		}
		want := out.Points[0]
		if got.Cores != want.Cores || got.Exact != want.Exact || got.Binding != want.Binding || !reflect.DeepEqual(got.Walls, want.Walls) {
			t.Errorf("%s: optimize %d cores (exact %g, %s), eval %d (exact %g, %s)",
				st, got.Cores, got.Exact, got.Binding, want.Cores, want.Exact, want.Binding)
		}
	}
}

// TestExampleSpecPinned pins the worked example's answer: the frontier and
// best design of examples/scenarios/optimize-area-budget.json (also pinned
// by `bandwall selftest`).
func TestExampleSpecPinned(t *testing.T) {
	res := mustSearch(t, New(), exampleSpec)
	type fp struct {
		cost    float64
		cores   int
		label   string
		binding string
	}
	want := []fp{
		{0, 11, "BASE", "bandwidth"},
		{1, 12, "Fltr", "bandwidth"},
		{1.5, 16, "LC", "bandwidth"},
		{2.5, 18, "Fltr + LC", "bandwidth"},
		{4, 21, "Fltr + CC/LC", "bandwidth"},
		{5.5, 24, "LC + DRAM", "bandwidth"},
		{6, 25, "3D", "thermal"},
		{6.5, 26, "Fltr + LC + DRAM", "bandwidth"},
		{7, 27, "CC/LC + DRAM", "bandwidth"},
		{8, 28, "Fltr + CC/LC + DRAM", "bandwidth"},
	}
	if res.Stacks != 33 || res.Candidates != 33 {
		t.Errorf("searched %d stacks / %d candidates, want 33 / 33", res.Stacks, res.Candidates)
	}
	if len(res.Frontier) != len(want) {
		t.Fatalf("frontier has %d points, want %d", len(res.Frontier), len(want))
	}
	for i, w := range want {
		g := res.Frontier[i]
		if g.Cost != w.cost || g.Cores != w.cores || g.Label != w.label || g.Binding != w.binding {
			t.Errorf("frontier[%d] = (%g, %d, %q, %q), want (%g, %d, %q, %q)",
				i, g.Cost, g.Cores, g.Label, g.Binding, w.cost, w.cores, w.label, w.binding)
		}
	}
	if b := res.Best; b.Label != "Fltr + CC/LC + DRAM" || b.Cores != 28 || fmt.Sprintf("%.4f", b.Exact) != "28.5803" || b.Binding != "bandwidth" {
		t.Errorf("best = %q %d cores (exact %g, %s), want Fltr + CC/LC + DRAM 28 cores (exact 28.5803, bandwidth)",
			b.Label, b.Cores, b.Exact, b.Binding)
	}
	// BASE's 11.03 cores leave (32 − 11.03)/11.03 ≈ 1.90 CEAs of cache each.
	if s := res.Frontier[0].Split; fmt.Sprintf("%.2f", s) != "1.90" {
		t.Errorf("BASE split = %g, want ≈ 1.90", s)
	}
}

// exampleSpec mirrors examples/scenarios/optimize-area-budget.json.
const exampleSpec = `{
  "id": "optimize-area-budget", "n2": 32,
  "envelopes": [
    {"kind": "bandwidth", "limit": 1},
    {"kind": "thermal", "limit": 2.08}
  ],
  "objective": "cores",
  "catalog": [
    {"name": "Fltr", "params": {"unused": 0.4}, "cost": 1},
    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
    {"name": "CC", "params": {"ratio": 2}, "cost": 2},
    {"name": "CC/LC", "params": {"ratio": 2}, "cost": 3},
    {"name": "DRAM", "params": {"density": 8}, "cost": 4},
    {"name": "3D", "params": {"density": 8}, "cost": 6}
  ],
  "max_techniques": 3
}`
