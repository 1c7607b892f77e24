package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/technique"
)

// multiwallSpec is the flip scenario: a unit bandwidth envelope against a
// growing thermal wall on a DRAM + 3D stack.
func multiwallSpec() *Spec {
	return &Spec{
		ID:   "flip",
		Axis: Axis{Generations: 4},
		Envelopes: []Envelope{
			{Kind: "bandwidth", Limit: 1},
			{Kind: "thermal", Limit: 3.4, Growth: 1.4},
		},
		Cases: []Case{{
			Label: "DRAM + 3D",
			Stack: []technique.Spec{
				{Name: "DRAM", Params: map[string]float64{"density": 8}},
				{Name: "3D", Params: map[string]float64{"density": 1}},
			},
		}},
	}
}

// TestValidateEnvelopeMessages: envelope validation errors must name the
// offending JSON path and kind, so a typo in a hand-written spec points at
// its own line (the satellite acceptance example: fig02.envelopes[1]:
// unknown kind "termal").
func TestValidateEnvelopeMessages(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(sp *Spec) { sp.Envelopes[1].Kind = "termal" }, `flip.envelopes[1]: unknown kind "termal"`},
		{func(sp *Spec) { sp.Budget.Envelope = 1.5 }, "flip.envelopes: mutually exclusive"},
		{func(sp *Spec) { sp.Envelopes[1].Kind = "bandwidth"; sp.Envelopes[1].Growth = 0 }, `flip.envelopes[1]: duplicate kind "bandwidth"`},
		{func(sp *Spec) { sp.Envelopes[0].Growth = 1.4 }, "flip.envelopes[0] (bandwidth): growth applies only to thermal and energy"},
		{func(sp *Spec) { sp.Envelopes[1].Limit = -2 }, "flip.envelopes[1] (thermal): limit must be non-negative"},
		{func(sp *Spec) { sp.Envelopes[0].CachePower = 0.2 }, "flip.envelopes[0] (bandwidth): cache_power applies only to thermal"},
		{func(sp *Spec) { sp.Envelopes[1].CachePower = 1.5 }, "flip.envelopes[1] (thermal): cache_power must be in (0,1)"},
		{func(sp *Spec) { sp.Envelopes[1].AccessShare = 0.5 }, "flip.envelopes[1] (thermal): access_share applies only to energy"},
		{func(sp *Spec) {
			sp.Envelopes[1].Kind = "energy"
			sp.Envelopes[1].Growth = 0
			sp.Envelopes[1].AccessShare = 1.2
		},
			"flip.envelopes[1] (energy): access_share must be in (0,1)"},
	}
	for i, tc := range cases {
		sp := multiwallSpec()
		tc.mutate(sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("case %d: invalid envelopes accepted", i)
			continue
		}
		if !errors.Is(err, robust.ErrDomain) {
			t.Errorf("case %d: err %v does not wrap robust.ErrDomain", i, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err %q does not contain %q", i, err, tc.want)
		}
	}
}

// TestValidatePathMessages: structural errors outside the envelope set name
// their JSON path too.
func TestValidatePathMessages(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(sp *Spec) { sp.Axis = Axis{N2: []float64{32, -1}} }, "flip.axis.n2[1]"},
		{func(sp *Spec) { sp.Axis = Axis{Ratios: []float64{0}} }, "flip.axis.ratios[0]"},
		{func(sp *Spec) { sp.Axis.Generations = -2 }, "flip.axis.generations"},
		{func(sp *Spec) { sp.Alpha = -1 }, "flip.alpha"},
		{func(sp *Spec) { sp.Cases[0].Budget = -1 }, "flip.cases[0].budget"},
	}
	for i, tc := range cases {
		sp := multiwallSpec()
		tc.mutate(sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err %v does not name path %q", i, err, tc.want)
		}
	}
}

// TestSpecCanonicalRoundTripQuick: for randomized valid envelope sets,
// Marshal→Parse→Marshal is a fixed point — the canonical form survives its
// own round trip, so a spec's serve-tier fingerprint cannot depend on which
// equivalent spelling the client sent.
func TestSpecCanonicalRoundTripQuick(t *testing.T) {
	// clamp maps an arbitrary float into (lo, hi) deterministically.
	clamp := func(v, lo, hi float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1
		}
		f := math.Abs(v) - math.Floor(math.Abs(v)) // [0,1)
		return lo + f*(hi-lo)
	}
	prop := func(use [3]bool, limits [3]float64, comp [3]bool, growth, cp, as float64, upper bool) bool {
		var env []Envelope
		kinds := []string{"bandwidth", "thermal", "energy"}
		for i, on := range use {
			if !on {
				continue
			}
			e := Envelope{Kind: kinds[i], Limit: clamp(limits[i], 0.5, 5), Compound: comp[i]}
			switch kinds[i] {
			case "thermal":
				e.Growth = clamp(growth, 1, 2)
				e.CachePower = clamp(cp, 0.01, 0.99)
			case "energy":
				e.Growth = clamp(growth, 1, 2)
				e.AccessShare = clamp(as, 0.01, 0.99)
			}
			if upper {
				e.Kind = strings.ToUpper(e.Kind) // parse must canonicalize case
			}
			env = append(env, e)
		}
		if len(env) == 0 {
			return true
		}
		sp := &Spec{ID: "q", Axis: Axis{N2: []float64{32}}, Envelopes: env, Cases: []Case{{Label: "BASE"}}}
		d1, err := json.Marshal(sp)
		if err != nil {
			return false
		}
		back, err := ParseSpec(d1)
		if err != nil {
			t.Logf("parse of canonical form failed: %v\n%s", err, d1)
			return false
		}
		d2, err := json.Marshal(back)
		if err != nil {
			return false
		}
		return string(d1) == string(d2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLegacyBudgetCanonicalEquality: a legacy budget.envelope spec and its
// single-bandwidth envelopes spelling must marshal to identical canonical
// bytes — the serve tier fingerprints the canonical marshal, so the two
// spellings share one response-cache entry and one replica route.
func TestLegacyBudgetCanonicalEquality(t *testing.T) {
	for _, tc := range []struct {
		limit    float64
		compound bool
	}{
		{1.5, false}, {1.3, true}, {1, false},
	} {
		legacy := &Spec{ID: "eq", Axis: Axis{N2: []float64{32}},
			Budget: Budget{Envelope: tc.limit, Compound: tc.compound},
			Cases:  []Case{{Label: "BASE"}}}
		walled := &Spec{ID: "eq", Axis: Axis{N2: []float64{32}},
			Envelopes: []Envelope{{Kind: "Bandwidth", Limit: tc.limit, Compound: tc.compound}},
			Cases:     []Case{{Label: "BASE"}}}
		d1, err := json.Marshal(legacy)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := json.Marshal(walled)
		if err != nil {
			t.Fatal(err)
		}
		if string(d1) != string(d2) {
			t.Errorf("limit=%g compound=%t: canonical forms split:\n%s\n%s", tc.limit, tc.compound, d1, d2)
		}
		// And the canonical form round-trips through ParseSpec unchanged.
		back, err := ParseSpec(d2)
		if err != nil {
			t.Fatal(err)
		}
		d3, _ := json.Marshal(back)
		if string(d3) != string(d1) {
			t.Errorf("parse drifted the canonical form:\n%s\n%s", d1, d3)
		}
	}
}

// TestNormalizeKeepsImpureEnvelopes: a bandwidth envelope is only folded
// into the legacy alias when it is the whole story — a thermal companion,
// or a non-default coefficient, must keep the envelopes array.
func TestNormalizeKeepsImpureEnvelopes(t *testing.T) {
	sp := multiwallSpec()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Envelopes) != 2 || back.Budget != (Budget{}) {
		t.Errorf("multi-wall spec folded: envelopes=%v budget=%+v", back.Envelopes, back.Budget)
	}
}

// bandwidthLimit is the bandwidth wall's limit among pt's wall reports,
// 0 when it has none.
func bandwidthLimit(pt Point) float64 {
	for _, wh := range pt.Walls {
		if wh.Kind == scaling.KindBandwidth {
			return wh.Limit
		}
	}
	return 0
}

// TestEvaluateMultiWallFlip: the flip scenario end-to-end — binding wall
// bandwidth at 2x/4x, thermal at 8x/16x, with per-wall headroom on every
// point, the bandwidth wall's limit among them. Each point's count is
// certified: every wall holds there within scaling.CertifyEps, and one
// more core leaves the die or breaks a wall.
func TestEvaluateMultiWallFlip(t *testing.T) {
	sp := multiwallSpec()
	o, err := NewEngine().Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sp.Cases[0].BuildStack()
	if err != nil {
		t.Fatal(err)
	}
	pm, s := st.Params(), scaling.Default()
	want := []string{"bandwidth", "bandwidth", "thermal", "thermal"}
	row := o.PointsFor(0)
	for i, pt := range row {
		if pt.Binding != want[i] {
			t.Errorf("gen %d: binding = %q, want %q", i+1, pt.Binding, want[i])
		}
		if len(pt.Walls) != 2 {
			t.Fatalf("gen %d: %d wall reports, want 2", i+1, len(pt.Walls))
		}
		if bandwidthLimit(pt) != 1 {
			t.Errorf("gen %d: bandwidth limit = %g, want 1", i+1, bandwidthLimit(pt))
		}
		for _, wh := range pt.Walls {
			if wh.Headroom < -wh.Limit*scaling.CertifyEps {
				t.Errorf("gen %d: wall %s infeasible at %d cores (headroom %g)", i+1, wh.Kind, pt.Cores, wh.Headroom)
			}
		}
		next := float64(pt.Cores + 1)
		broken := next > pt.Gen.N/pm.CoreArea
		for _, e := range sp.Envelopes {
			w := e.wall()
			broken = broken || w.Usage(s, pm, pt.Gen.N, next, pt.Gen.Index) > w.LimitAt(pt.Gen.Index)*(1+scaling.CertifyEps)
		}
		if !broken {
			t.Errorf("gen %d: %d cores fit every wall, but %d were served", i+1, pt.Cores+1, pt.Cores)
		}
	}
	// The cores are the flip example's pinned values.
	var cores []int
	for _, pt := range row {
		cores = append(cores, pt.Cores)
	}
	if fmt.Sprint(cores) != "[26 36 44 43]" {
		t.Errorf("cores = %v, want [26 36 44 43]", cores)
	}
}

// TestEvaluateCaseBudgetWithEnvelopes: a per-case budget override replaces
// the bandwidth wall's limit inside the envelope set, and conjures a
// bandwidth wall when the set has none.
func TestEvaluateCaseBudgetWithEnvelopes(t *testing.T) {
	sp := multiwallSpec()
	sp.Cases[0].Budget = 2
	o, err := NewEngine().Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	pt := o.PointsFor(0)[0]
	if bandwidthLimit(pt) != 2 {
		t.Errorf("override lost: bandwidth limit = %g, want 2", bandwidthLimit(pt))
	}

	// Thermal-only envelope set + case budget: the override adds the wall.
	sp2 := multiwallSpec()
	sp2.Envelopes = sp2.Envelopes[1:2]
	sp2.Cases[0].Budget = 1.5
	o2, err := NewEngine().Evaluate(context.Background(), sp2)
	if err != nil {
		t.Fatal(err)
	}
	pt2 := o2.PointsFor(0)[0]
	kinds := map[string]bool{}
	for _, wh := range pt2.Walls {
		kinds[wh.Kind] = true
	}
	if !kinds[scaling.KindBandwidth] || !kinds[scaling.KindThermal] {
		t.Errorf("walls = %v, want thermal plus conjured bandwidth", pt2.Walls)
	}
	if bandwidthLimit(pt2) != 1.5 {
		t.Errorf("conjured wall limit = %g, want 1.5", bandwidthLimit(pt2))
	}
}

// TestEvaluateEnergyEnvelope: an energy wall runs end-to-end through the
// engine and reports its headroom. On 32 CEAs the whole die fits both
// walls (bandwidth usage 1.41 ≤ 1.5, energy 1.46 ≤ 1.8), so the die binds
// there; from 64 CEAs on a wall does.
func TestEvaluateEnergyEnvelope(t *testing.T) {
	sp := multiwallSpec()
	sp.Envelopes = []Envelope{
		{Kind: "bandwidth", Limit: 1.5},
		{Kind: "energy", Limit: 1.8, AccessShare: 0.5},
	}
	o, err := NewEngine().Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range o.PointsFor(0) {
		if pt.Gen.N == 32 {
			if pt.Binding != scaling.KindDie || pt.Exact != 32 {
				t.Errorf("32 CEAs: binding %q at %v cores, want die at 32", pt.Binding, pt.Exact)
			}
		} else if pt.Binding != scaling.KindEnergy && pt.Binding != scaling.KindBandwidth {
			t.Errorf("%g CEAs: binding = %q, want bandwidth or energy", pt.Gen.N, pt.Binding)
		}
		found := false
		for _, wh := range pt.Walls {
			if wh.Kind == scaling.KindEnergy {
				found = true
				if wh.Limit != 1.8 {
					t.Errorf("energy limit = %g, want 1.8", wh.Limit)
				}
			}
		}
		if !found {
			t.Error("no energy wall report on point")
		}
	}
}

// TestEvaluateDieBound: a 64x stacked die lets all 32 cores of a 32-CEA
// die fit both walls, so the die binds at exactly 32 cores, and every
// wall reports its usage there.
func TestEvaluateDieBound(t *testing.T) {
	sp := &Spec{
		ID:   "die",
		Axis: Axis{N2: []float64{32}},
		Envelopes: []Envelope{
			{Kind: "bandwidth", Limit: 1},
			{Kind: "thermal", Limit: 100},
		},
		Cases: []Case{{Stack: []technique.Spec{{Name: "3D", Params: map[string]float64{"density": 64}}}}},
	}
	o, err := NewEngine().Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	pt := o.Points[0]
	if pt.Binding != scaling.KindDie || pt.Exact != 32 || pt.Cores != 32 {
		t.Fatalf("binding %q, exact %v, cores %d; want die, 32, 32", pt.Binding, pt.Exact, pt.Cores)
	}
	for i, want := range []float64{0.5, 2.5} {
		if wh := pt.Walls[i]; math.Abs(wh.Usage-want) > 1e-12 || wh.Exact != 32 {
			t.Errorf("%s wall: usage %v, exact %v; want %v, 32", wh.Kind, wh.Usage, wh.Exact, want)
		}
	}
}

// TestEvaluateCertifiedCores: each served count is the largest integer
// every wall allows. BASE's root at budget 0.99515185892833691 lies
// 5e-7 below 11 cores, which exceed the budget, so the cell serves 10.
// Without a stacked die the 32nd core of a 32-CEA die leaves no cache
// (+Inf traffic), so roots just below the die serve 31, bound to the
// wall whose root they are: a lone energy wall at 1e300, and the
// bandwidth wall of CC at ratio 1e300.
func TestEvaluateCertifiedCores(t *testing.T) {
	const snap = 0.99515185892833691
	for _, tc := range []struct {
		sp      *Spec
		cores   int
		binding string
	}{
		{&Spec{ID: "snap", Axis: Axis{N2: []float64{32}}, Budget: Budget{Envelope: snap}, Cases: []Case{{}}}, 10, scaling.KindBandwidth},
		{&Spec{ID: "energy", Axis: Axis{N2: []float64{32}}, Envelopes: []Envelope{{Kind: "energy", Limit: 1e300}}, Cases: []Case{{}}}, 31, scaling.KindEnergy},
		{&Spec{ID: "cc", Axis: Axis{N2: []float64{32}}, Cases: []Case{{Stack: []technique.Spec{{Name: "CC", Params: map[string]float64{"ratio": 1e300}}}}}}, 31, scaling.KindBandwidth},
	} {
		o, err := NewEngine().Evaluate(context.Background(), tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.sp.ID, err)
		}
		pt := o.Points[0]
		if pt.Cores != tc.cores || pt.Binding != tc.binding {
			t.Errorf("%s: %d cores bound by %s (exact %v), want %d by %s", tc.sp.ID, pt.Cores, pt.Binding, pt.Exact, tc.cores, tc.binding)
		}
		for _, wh := range pt.Walls {
			if math.IsInf(wh.Usage, 0) || math.IsNaN(wh.Usage) || math.IsInf(wh.Headroom, 0) || math.IsNaN(wh.Headroom) ||
				wh.Headroom < -wh.Limit*scaling.CertifyEps {
				t.Errorf("%s: %s wall at %d cores: usage %v, headroom %v", tc.sp.ID, wh.Kind, pt.Cores, wh.Usage, wh.Headroom)
			}
		}
	}
	s := scaling.Default()
	if at, over := s.Traffic(technique.Combine(), 32, 10), s.Traffic(technique.Combine(), 32, 11); !(at <= snap && snap < over) {
		t.Errorf("traffic at 10 cores %v, at 11 %v; want the budget %v between them", at, over, snap)
	}
}

// TestEvaluateCoresPast2to53: from 2^53 on a float64 no longer holds every
// integer, so no count there can be certified. Under a compounding 2x
// envelope BASE's root is 8·2^g cores at generation g: 2^53 at generation
// 50. The 70-generation spec is a domain error naming the bound, not a
// wrapped int; 49 generations still solve.
func TestEvaluateCoresPast2to53(t *testing.T) {
	sp := &Spec{ID: "big", Budget: Budget{Envelope: 2, Compound: true}, Axis: Axis{Generations: 70}, Cases: []Case{{Label: "BASE"}}}
	_, err := NewEngine().Evaluate(context.Background(), sp)
	if !errors.Is(err, robust.ErrDomain) || !strings.Contains(err.Error(), "2^53") {
		t.Fatalf("err = %v, want a domain error naming 2^53", err)
	}
	sp.Axis.Generations = 49
	o, err := NewEngine().Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatalf("49 generations: %v", err)
	}
	if pt := o.Points[48]; pt.Cores <= 0 || math.Abs(float64(pt.Cores)-math.Floor(pt.Exact)) > 1 {
		t.Errorf("generation 49: %d cores, exact %v", pt.Cores, pt.Exact)
	}
}

// TestEvaluateTinyCores: shrinking cores past about 1e9 once made every
// wall's solve start above its root, so a multi-wall spec answered a
// domain error where the model reads shrink 1e6's core count. Through a
// three-wall spec bandwidth binds at 12 cores, and with a tight thermal
// wall thermal binds at 5, at every shrink.
func TestEvaluateTinyCores(t *testing.T) {
	shrinks := []float64{1e6, 1e9, 1e12, 1e30, 1e300}
	spec := func(envs ...Envelope) *Spec {
		sp := &Spec{ID: "tiny", Axis: Axis{N2: []float64{32}}, Envelopes: envs}
		for _, k := range shrinks {
			sp.Cases = append(sp.Cases, Case{
				Label: fmt.Sprint(k),
				Stack: []technique.Spec{{Name: "SmCo", Params: map[string]float64{"shrink": k}}},
			})
		}
		return sp
	}
	for _, tc := range []struct {
		sp      *Spec
		binding string
		cores   int
	}{
		{spec(Envelope{Kind: "bandwidth", Limit: 1}, Envelope{Kind: "thermal", Limit: 100}, Envelope{Kind: "energy", Limit: 100}), scaling.KindBandwidth, 12},
		{spec(Envelope{Kind: "bandwidth", Limit: 1}, Envelope{Kind: "thermal", Limit: 0.5}), scaling.KindThermal, 5},
	} {
		o, err := NewEngine().Evaluate(context.Background(), tc.sp)
		if err != nil {
			t.Fatalf("%s-bound spec: %v", tc.binding, err)
		}
		base := o.PointsFor(0)[0].Exact
		for i, k := range shrinks {
			pt := o.PointsFor(i)[0]
			if pt.Cores != tc.cores || pt.Binding != tc.binding || math.Abs(pt.Exact-base) > 1e-5 {
				t.Errorf("%s-bound spec, shrink %g: %d cores (exact %.9f) bound by %s, want %d by %s within 1e-5 of %.9f",
					tc.binding, k, pt.Cores, pt.Exact, pt.Binding, tc.cores, tc.binding, base)
			}
		}
	}
}

// TestRenderMultiWallTables: multi-wall outcomes grow the binding-wall
// table; legacy outcomes must not (their report bytes are pinned by the
// serve smoke test).
func TestRenderMultiWallTables(t *testing.T) {
	o, err := NewEngine().Evaluate(context.Background(), multiwallSpec())
	if err != nil {
		t.Fatal(err)
	}
	tables, _ := o.Render()
	if len(tables) != 2 || tables[1].Title != "Binding wall per generation" {
		t.Fatalf("multi-wall render: %d tables, want cores + binding wall", len(tables))
	}

	legacy := validSpec()
	lo, err := NewEngine().Evaluate(context.Background(), legacy)
	if err != nil {
		t.Fatal(err)
	}
	ltables, _ := lo.Render()
	if len(ltables) != 1 {
		t.Errorf("legacy render grew %d tables, want 1", len(ltables))
	}
	for _, h := range ltables[0].Headers {
		if h == "binding" {
			t.Error("legacy render grew a binding column")
		}
	}
}

// TestEvaluateCaseEnvelopeOverride: a cases[].envelopes entry replaces the
// spec wall of its kind for that case only, and adds a wall when the spec
// has none of that kind.
func TestEvaluateCaseEnvelopeOverride(t *testing.T) {
	sp := multiwallSpec()
	sp.Cases = append(sp.Cases, sp.Cases[0])
	// Case 1 loosens only the thermal wall; its bandwidth wall is inherited.
	sp.Cases[1].Envelopes = []Envelope{{Kind: "Thermal", Limit: 10}}
	o, err := NewEngine().Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	base := o.PointsFor(0)
	loose := o.PointsFor(1)
	// With a 10x thermal ceiling the wall never flips: every generation
	// stays bandwidth-bound, and the late generations gain cores.
	for i, pt := range loose {
		if pt.Binding != scaling.KindBandwidth {
			t.Errorf("gen %d: binding = %q, want bandwidth under the loosened thermal wall", i+1, pt.Binding)
		}
		for _, wh := range pt.Walls {
			if wh.Kind == scaling.KindThermal && wh.Limit != 10 {
				t.Errorf("gen %d: thermal limit = %g, want the case override 10", i+1, wh.Limit)
			}
		}
	}
	if loose[3].Cores <= base[3].Cores {
		t.Errorf("loosened case solved %d cores @16x, want more than the inherited %d", loose[3].Cores, base[3].Cores)
	}
	// Case 0 is untouched: the flip pinned by TestEvaluateMultiWallFlip.
	if base[3].Binding != scaling.KindThermal {
		t.Errorf("inherited case binding @16x = %q, want thermal", base[3].Binding)
	}

	// A case envelope of a kind the spec lacks joins the wall set.
	sp2 := multiwallSpec()
	sp2.Envelopes = sp2.Envelopes[:1] // bandwidth only
	sp2.Cases[0].Envelopes = []Envelope{{Kind: "energy", Limit: 1.2}}
	o2, err := NewEngine().Evaluate(context.Background(), sp2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, wh := range o2.PointsFor(0)[0].Walls {
		kinds[wh.Kind] = true
	}
	if !kinds[scaling.KindBandwidth] || !kinds[scaling.KindEnergy] {
		t.Errorf("walls = %v, want inherited bandwidth plus case energy", o2.PointsFor(0)[0].Walls)
	}

	// On a legacy spec (no spec envelopes at all) the implicit bandwidth
	// wall is inherited alongside the case's added wall.
	sp3 := &Spec{ID: "legacy", Axis: Axis{N2: []float64{32}}, Cases: []Case{{
		Label:     "BASE",
		Envelopes: []Envelope{{Kind: "thermal", Limit: 1.2}},
	}}}
	o3, err := NewEngine().Evaluate(context.Background(), sp3)
	if err != nil {
		t.Fatal(err)
	}
	pt3 := o3.PointsFor(0)[0]
	if len(pt3.Walls) != 2 || bandwidthLimit(pt3) != 1 {
		t.Errorf("legacy + case envelope: walls = %v budget = %g, want implicit bandwidth 1 plus thermal", pt3.Walls, bandwidthLimit(pt3))
	}
}

// TestCaseEnvelopeValidation: per-case envelope errors carry the case's
// JSON path, and the legacy budget override is mutually exclusive.
func TestCaseEnvelopeValidation(t *testing.T) {
	sp := multiwallSpec()
	sp.Cases[0].Envelopes = []Envelope{{Kind: "termal"}}
	err := sp.Validate()
	if err == nil || !strings.Contains(err.Error(), `flip.cases[0].envelopes[0]: unknown kind "termal"`) {
		t.Errorf("error = %v, want case-path unknown kind", err)
	}
	sp2 := multiwallSpec()
	sp2.Cases[0].Envelopes = []Envelope{{Kind: "thermal", Limit: 2}}
	sp2.Cases[0].Budget = 1.5
	err = sp2.Validate()
	if err == nil || !strings.Contains(err.Error(), "flip.cases[0].envelopes: mutually exclusive") {
		t.Errorf("error = %v, want mutual-exclusion message", err)
	}
}

// TestCaseEnvelopeCanonicalStability: specs without case envelopes must
// serialize byte-identically whether or not the feature exists, and a spec
// using it must survive Marshal→Parse→Marshal as a fixed point with
// canonicalized kinds.
func TestCaseEnvelopeCanonicalStability(t *testing.T) {
	legacy := multiwallSpec()
	data, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"cases":[{"label":"DRAM + 3D","stack":[{"name":"DRAM"`) == false {
		t.Fatalf("unexpected canonical form: %s", data)
	}
	if strings.Count(string(data), "envelopes") != 1 {
		t.Fatalf("legacy case grew an envelopes key: %s", data)
	}

	sp := multiwallSpec()
	sp.Cases[0].Envelopes = []Envelope{{Kind: "THERMAL", Limit: 5}}
	first, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), `"envelopes":[{"kind":"thermal","limit":5}]`) {
		t.Fatalf("case envelope kind not canonicalized: %s", first)
	}
	// Marshal must not mutate the caller's spec (copy-on-write).
	if sp.Cases[0].Envelopes[0].Kind != "THERMAL" {
		t.Fatalf("Marshal mutated the caller's case envelopes")
	}
	re, err := ParseSpec(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(re)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("fixed point broken:\n%s\n%s", first, second)
	}
}
