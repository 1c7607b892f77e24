package scenario

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/technique"
)

func TestEvaluateHeadlines(t *testing.T) {
	// The engine must reproduce the paper's headline answers through the
	// cached path: BASE supports 11 cores on 32 CEAs (Fig 2) and the
	// stacked CC=2 + LC=2 query lands on Fig 12's 18 cores.
	e := NewEngine()
	sp := &Spec{
		ID:   "headlines",
		Axis: Axis{N2: []float64{32}},
		Cases: []Case{
			{Label: "BASE", ValueKey: "cores@base"},
			{
				Label: "CC 2x + LC 2x",
				Stack: []technique.Spec{
					{Name: "CC", Params: map[string]float64{"ratio": 2}},
					{Name: "LC", Params: map[string]float64{"ratio": 2}},
				},
				ValueKey: "cores@cc+lc",
			},
		},
	}
	o, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Values["cores@base"]; got != 11 {
		t.Errorf("BASE cores = %v, want 11", got)
	}
	if got := o.Values["cores@cc+lc"]; got != 18 {
		t.Errorf("CC+LC cores = %v, want 18 (Fig 12)", got)
	}
}

func TestEvaluateMatchesDirectSolver(t *testing.T) {
	// Engine cells must be bit-identical to direct solver calls.
	e := NewEngine()
	sp := &Spec{
		ID:   "direct",
		Axis: Axis{Generations: 4},
		Cases: []Case{
			{Label: "BASE"},
			{Label: "DRAM", Stack: []technique.Spec{{Name: "DRAM", Params: map[string]float64{"density": 8}}}},
		},
	}
	o, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	s := scaling.Default()
	stacks := []technique.Stack{
		technique.Combine(),
		technique.Combine(technique.DRAMCache{Density: 8}),
	}
	for ci, st := range stacks {
		for ai, g := range o.Gens {
			exact, err := s.SupportableCores(st, g.N, 1)
			if err != nil {
				t.Fatal(err)
			}
			cores, err := s.MaxCores(st, g.N, 1)
			if err != nil {
				t.Fatal(err)
			}
			pt := o.PointsFor(ci)[ai]
			if math.Float64bits(pt.Exact) != math.Float64bits(exact) || pt.Cores != cores {
				t.Errorf("case %d @%gx: engine (%v, %d) != solver (%v, %d)",
					ci, g.Ratio, pt.Exact, pt.Cores, exact, cores)
			}
		}
	}
}

func TestEvaluateCompoundBudgetMatchesSweep(t *testing.T) {
	// Compound envelopes must agree with SweepGenerations's
	// budget^generation rule, including the derived fields.
	e := NewEngine()
	sp := &Spec{
		ID:     "compound",
		Budget: Budget{Envelope: 1.5, Compound: true},
		Axis:   Axis{Generations: 4},
		Cases:  []Case{{Label: "BASE", ValueKey: "cores"}},
	}
	o, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	s := scaling.Default()
	pts, err := s.SweepGenerations(technique.Combine(), o.Gens, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pts {
		got := o.PointsFor(0)[i]
		if got.Cores != want.Cores ||
			math.Float64bits(got.Exact) != math.Float64bits(want.ExactCores) ||
			math.Float64bits(got.AreaFraction) != math.Float64bits(want.AreaFraction) ||
			math.Float64bits(got.Proportional) != math.Float64bits(want.Proportional) {
			t.Errorf("gen %d: engine %+v != sweep %+v", i, got, want)
		}
		if o.Values[GenKey("cores", want.Gen.Ratio)] != float64(want.Cores) {
			t.Errorf("gen %d: value key missing or wrong", i)
		}
	}
}

func TestEvaluateAssumptionCandles(t *testing.T) {
	// Three assumption-tagged cases per technique must match MaxCores at
	// each assumption's Table 2 ratio.
	e := NewEngine()
	sp := &Spec{
		ID:   "candles",
		Axis: Axis{Generations: 4},
		Cases: []Case{
			{Label: "CC pess", Stack: []technique.Spec{{Name: "CC"}}, Assumption: "pessimistic", ValueKey: "CC:pess"},
			{Label: "CC real", Stack: []technique.Spec{{Name: "CC"}}, Assumption: "realistic", ValueKey: "CC"},
			{Label: "CC opt", Stack: []technique.Spec{{Name: "CC"}}, Assumption: "optimistic", ValueKey: "CC:opt"},
		},
	}
	o, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	s := scaling.Default()
	for _, g := range o.Gens {
		for _, c := range []struct {
			key   string
			ratio float64 // Table 2's CC ratio at the case's assumption
		}{{"CC:pess", 1.25}, {"CC", 2.0}, {"CC:opt", 3.5}} {
			want, err := s.MaxCores(technique.Combine(technique.CacheCompression{Ratio: c.ratio}), g.N, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := o.Values[GenKey(c.key, g.Ratio)]; got != float64(want) {
				t.Errorf("%s @%gx: engine %v cores, MaxCores %d", c.key, g.Ratio, got, want)
			}
		}
	}
}

func TestEvaluateAlphaOverride(t *testing.T) {
	e := NewEngine()
	sp := &Spec{
		ID:   "alpha",
		Axis: Axis{N2: []float64{256}},
		Cases: []Case{
			{Label: "small α", Alpha: 0.25, ValueKey: "cores@a=0.25"},
			{Label: "large α", Alpha: 0.62, ValueKey: "cores@a=0.62"},
		},
	}
	o, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	small, large := o.Values["cores@a=0.25"], o.Values["cores@a=0.62"]
	// Fig 17's BASE row: a large α supports nearly twice the cores.
	if !(large > 1.5*small) {
		t.Errorf("α sensitivity lost: %v cores at α=0.25, %v at α=0.62", small, large)
	}
}

func TestEvaluateSharesCacheAcrossCases(t *testing.T) {
	// Two spellings of the same stack, one axis point: the second cell must
	// hit the first's cache entry.
	e := NewEngine()
	sp := &Spec{
		ID:   "dedup",
		Axis: Axis{N2: []float64{32}},
		Cases: []Case{
			{Label: "split", Stack: []technique.Spec{
				{Name: "CC", Params: map[string]float64{"ratio": 2}},
				{Name: "LC", Params: map[string]float64{"ratio": 2}},
			}},
			{Label: "fused", Stack: []technique.Spec{{Name: "CC/LC", Params: map[string]float64{"ratio": 2}}}},
		},
	}
	hits0, misses0 := e.Cache.Stats()
	o, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := e.Cache.Stats()
	hits, misses = hits-hits0, misses-misses0
	if hits+misses != 2 {
		t.Fatalf("hits+misses = %d, want 2", hits+misses)
	}
	if misses != 1 {
		t.Errorf("misses = %d, want 1: equivalent stacks did not share an entry", misses)
	}
	if o.PointsFor(0)[0].Cores != o.PointsFor(1)[0].Cores {
		t.Errorf("equivalent stacks disagree: %d vs %d", o.PointsFor(0)[0].Cores, o.PointsFor(1)[0].Cores)
	}
}

func TestEvaluateCanceledContext(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Evaluate(ctx, validSpec())
	if err == nil {
		t.Fatal("canceled context: want error")
	}
	if robust.Classify(err) != robust.Canceled {
		t.Errorf("classified %v (err %v), want Canceled", robust.Classify(err), err)
	}
}

// canceledAfter is a live context whose Err turns Canceled after its
// first call: it passes Evaluate's entry check and nothing after it.
type canceledAfter struct {
	context.Context
	calls atomic.Int32
}

func (c *canceledAfter) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestEvaluateCanceledWhileWarm: a warm engine resolves every cell from
// the memo without reaching a solver's cancellation check, so the pool
// itself must see the context end.
func TestEvaluateCanceledWhileWarm(t *testing.T) {
	e := NewEngine()
	sp := validSpec()
	if _, err := e.Evaluate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	_, err := e.Evaluate(&canceledAfter{Context: context.Background()}, sp)
	if err == nil || robust.Classify(err) != robust.Canceled {
		t.Fatalf("warm evaluation after cancellation: err = %v, want a Canceled error", err)
	}
}

func TestEvaluateDomainErrorPropagates(t *testing.T) {
	e := NewEngine()
	sp := validSpec()
	sp.Budget.Envelope = 1e-18 // unreachable on any near-zero-core chip
	_, err := e.Evaluate(context.Background(), sp)
	if err == nil {
		t.Fatal("unreachable budget: want error")
	}
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("err = %v, want robust.ErrDomain", err)
	}
}

// TestEvaluatePanicContained injects a panic at the scaling.solve fault
// point: the engine's worker goroutines must convert it into a per-cell
// *robust.PanicError instead of letting it kill the process.
func TestEvaluatePanicContained(t *testing.T) {
	plan, err := robust.ParsePlan("scaling.solve=panic")
	if err != nil {
		t.Fatal(err)
	}
	defer robust.SetInjector(robust.NewInjector(plan))()
	e := NewEngine()
	_, err = e.Evaluate(context.Background(), validSpec())
	if err == nil {
		t.Fatal("injected panic: want error")
	}
	var pe *robust.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("err = %v, want a contained *robust.PanicError", err)
	}
}

func TestZeroEngineUsable(t *testing.T) {
	var e Engine
	o, err := e.Evaluate(context.Background(), validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Points) != 2 {
		t.Errorf("got %d points", len(o.Points))
	}
}

func TestOutcomeRender(t *testing.T) {
	e := NewEngine()
	// Single-point axis: sweep-shaped table.
	o, err := e.Evaluate(context.Background(), validSpec())
	if err != nil {
		t.Fatal(err)
	}
	tables, charts := o.Render()
	if len(tables) != 1 || len(charts) != 1 {
		t.Fatalf("sweep render: %d tables, %d charts", len(tables), len(charts))
	}
	if got := tables[0].Headers[0]; got != "configuration" {
		t.Errorf("sweep header = %q", got)
	}

	// Multi-point axis: generation-shaped table with one column per gen.
	gsp := &Spec{
		ID:    "gens",
		Axis:  Axis{Generations: 4},
		Cases: []Case{{Label: "BASE"}},
	}
	o, err = e.Evaluate(context.Background(), gsp)
	if err != nil {
		t.Fatal(err)
	}
	tables, charts = o.Render()
	if len(tables) != 1 || len(tables[0].Headers) != 5 {
		t.Fatalf("gen render: %+v", tables)
	}
	if len(charts) != 1 {
		t.Errorf("gen render: %d charts, want 1", len(charts))
	}
}
