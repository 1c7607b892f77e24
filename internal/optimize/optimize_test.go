package optimize

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/robust"
	"repro/internal/scenario"
)

// testSpec is a small exhaustive grid: 4 catalog entries (two of them
// mutually exclusive via the CC/LC dual group), 3 split points.
const testSpec = `{
  "id": "opt-test", "n2": 32,
  "catalog": [
    {"name": "Fltr", "params": {"unused": 0.4}, "cost": 1},
    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
    {"name": "CC/LC", "params": {"ratio": 2}, "cost": 3},
    {"name": "DRAM", "params": {"density": 8}, "cost": 4}
  ],
  "split": {"min": 0.5, "max": 2, "points": 3}
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
			t.Fatalf("objective %s: empty grid or frontier", objective)
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
	  ],
	  "split": {"min": 1, "max": 1, "points": 1}
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
	  ],
	  "split": {"min": 1, "max": 1, "points": 1}
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
	if res.Best.Label != "3D" || res.Best.Cores != 25 || res.Best.Binding != "thermal" {
		t.Errorf("best = %q %d cores (%s), want 3D 25 cores (thermal)", res.Best.Label, res.Best.Cores, res.Best.Binding)
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
  "max_techniques": 3,
  "split": {"min": 0.25, "max": 4, "points": 8}
}`
