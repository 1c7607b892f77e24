package scaling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/robust"
	"repro/internal/technique"
)

func TestEvalCacheHitMiss(t *testing.T) {
	s := Default()
	c := NewEvalCache()
	st := technique.Combine(technique.CacheCompression{Ratio: 2})

	v1, err := c.SupportableCores(context.Background(), s, st.Params(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.SupportableCores(context.Background(), s, st.Params(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(v1) != math.Float64bits(v2) {
		t.Errorf("cached value drifted: %v vs %v", v1, v2)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if c.Info(0).Entries != 1 {
		t.Errorf("entries = %d, want 1", c.Info(0).Entries)
	}

	// A different budget is a different key.
	if _, err := c.SupportableCores(context.Background(), s, st.Params(), 32, 1.5); err != nil {
		t.Fatal(err)
	}
	if c.Info(0).Entries != 2 {
		t.Errorf("entries after new budget = %d, want 2", c.Info(0).Entries)
	}
}

func TestEvalCacheFingerprintCollapsesEquivalentStacks(t *testing.T) {
	// "CC=2 + LC=2" and "CC/LC=2" resolve to identical technique.Params, so
	// the second query must be a cache hit on the first's entry.
	s := Default()
	c := NewEvalCache()
	split := technique.Combine(
		technique.CacheCompression{Ratio: 2},
		technique.LinkCompression{Ratio: 2},
	)
	fused := technique.Combine(technique.CacheLinkCompression{Ratio: 2})
	if split.Params() != fused.Params() {
		t.Fatalf("resolved params differ: %+v vs %+v", split.Params(), fused.Params())
	}

	v1, err := c.SupportableCores(context.Background(), s, split.Params(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.SupportableCores(context.Background(), s, fused.Params(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(v1) != math.Float64bits(v2) {
		t.Errorf("equivalent stacks solved differently: %v vs %v", v1, v2)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1): fingerprint did not collapse", hits, misses)
	}
}

func TestEvalCacheNilReceiver(t *testing.T) {
	var c *EvalCache
	s := Default()
	st := technique.Combine()
	v, err := c.SupportableCores(context.Background(), s, st.Params(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.SupportableCores(st, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Errorf("nil cache = %v, direct = %v", v, want)
	}
	n, err := maxCores(context.Background(), c, s, st, 32, 1)
	if err != nil || n != 11 {
		t.Errorf("nil cache MaxCores = %d, %v; want 11", n, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("nil cache stats = (%d, %d)", hits, misses)
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("nil cache entries = %d", c.Info(0).Entries)
	}
}

func TestEvalCacheMaxCoresMatchesSolver(t *testing.T) {
	// The cached certified count must agree with the uncached MaxCores
	// across stacks, chip sizes, and budgets — including after a warm hit.
	s := Default()
	c := NewEvalCache()
	stacks := []technique.Stack{
		technique.Combine(),
		technique.Combine(technique.CacheCompression{Ratio: 2}),
		technique.Combine(technique.DRAMCache{Density: 8}),
		technique.Combine(technique.CacheLinkCompression{Ratio: 2}),
		technique.Combine(technique.SmallerCores{AreaFraction: 1.0 / 40}),
	}
	for _, st := range stacks {
		for _, n2 := range []float64{16, 32, 64, 128} {
			for _, budget := range []float64{1, 1.5} {
				want, err := s.MaxCores(st, n2, budget)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // cold then warm
					got, err := maxCores(context.Background(), c, s, st, n2, budget)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s n2=%g B=%g pass %d: cached %d, direct %d", st.Label(), n2, budget, pass, got, want)
					}
				}
			}
		}
	}
}

func TestEvalCacheSolverConstantsInKey(t *testing.T) {
	// Same stack and chip, different α: distinct entries, distinct answers.
	c := NewEvalCache()
	st := technique.Combine()
	s1 := Default()
	s2 := MustNew(s1.Base(), 0.25)
	v1, err := c.SupportableCores(context.Background(), s1, st.Params(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.SupportableCores(context.Background(), s2, st.Params(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Errorf("different α returned identical cores %v", v1)
	}
	if c.Info(0).Entries != 2 {
		t.Errorf("entries = %d, want 2 (α must be part of the key)", c.Info(0).Entries)
	}
}

func TestEvalCacheDoesNotCacheErrors(t *testing.T) {
	s := Default()
	c := NewEvalCache()
	st := technique.Combine()

	// Domain violation: nothing memoized.
	if _, err := c.SupportableCores(context.Background(), s, st.Params(), 32, -1); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("bad budget error = %v, want robust.ErrDomain", err)
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("error was cached: entries = %d", c.Info(0).Entries)
	}

	// Canceled context: error now, success (a fresh miss) once the context
	// is live again — a canceled solve must not poison the entry.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SupportableCores(canceled, s, st.Params(), 32, 1); robust.Classify(err) != robust.Canceled {
		t.Errorf("canceled solve classified %v (err %v), want Canceled", robust.Classify(err), err)
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("canceled solve was cached: entries = %d", c.Info(0).Entries)
	}
	if _, err := c.SupportableCores(context.Background(), s, st.Params(), 32, 1); err != nil {
		t.Errorf("solve after cancellation: %v", err)
	}
	if c.Info(0).Entries != 1 {
		t.Errorf("entries after recovery = %d, want 1", c.Info(0).Entries)
	}
}

func TestEvalCacheConcurrent(t *testing.T) {
	// Hammer one cache from many goroutines over a small key space; every
	// answer must match the direct solver. Run with -race in CI.
	s := Default()
	c := NewEvalCache()
	st := technique.Combine(technique.CacheCompression{Ratio: 2})
	want := make(map[float64]int)
	for _, n2 := range []float64{16, 32, 64, 128} {
		n, err := s.MaxCores(st, n2, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[n2] = n
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n2 := []float64{16, 32, 64, 128}[(g+i)%4]
				got, err := maxCores(context.Background(), c, s, st, n2, 1)
				if err != nil {
					errc <- err
					return
				}
				if got != want[n2] {
					errc <- fmt.Errorf("n2=%g: got %d, want %d", n2, got, want[n2])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if c.Info(0).Entries != 4 {
		t.Errorf("entries = %d, want 4", c.Info(0).Entries)
	}
	hits, misses := c.Stats()
	if hits+misses != 16*20 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 16*20)
	}
	if misses != 4 {
		t.Errorf("misses = %d, want 4: each key is solved once", misses)
	}
}

// TestEvalCacheSolvesColdKeyOnce: eight concurrent misses on one cold key
// run one solve. The injected 20 ms sleep holds the solve open while the
// other seven arrive; each of them counts a hit on the one entry, whether
// it joined the flight or found the stored answer.
func TestEvalCacheSolvesColdKeyOnce(t *testing.T) {
	plan, err := robust.ParsePlan("scaling.solve=sleep:20ms x*")
	if err != nil {
		t.Fatal(err)
	}
	defer robust.SetInjector(robust.NewInjector(plan))()

	s := Default()
	c := NewEvalCache()
	st := technique.Combine(technique.CacheCompression{Ratio: 2})
	pm := st.Params()
	const n = 8
	vals := make([]float64, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			vals[i], errs[i] = c.SupportableCores(context.Background(), s, pm, 32, 1)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range vals {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if math.Float64bits(vals[i]) != math.Float64bits(vals[0]) {
			t.Errorf("caller %d got %v, caller 0 %v", i, vals[i], vals[0])
		}
	}
	if hits, misses := c.Stats(); hits != n-1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (%d, 1)", hits, misses, n-1)
	}
	info := c.Info(1)
	if info.Entries != 1 || len(info.Top) != 1 || info.Top[0].Hits != n-1 {
		t.Errorf("info = %+v, want one entry with %d hits", info, n-1)
	}
}

// TestEvalCacheKeyCarriesEveryInput: the memo key must change when any
// input of the root changes — each leaf field of the solver's traffic
// model (baseline allocation and α) and of the resolved technique.Params,
// the chip area and the budget. The walk is reflective, so a field added
// to power.Config, power.TrafficModel or technique.Params that the key
// forgets fails here instead of serving another input's answer.
func TestEvalCacheKeyCarriesEveryInput(t *testing.T) {
	var c *EvalCache
	model := Default().Model()
	pm := technique.Neutral()
	const n2, budget = 64.0, 1.0
	base := c.key(Solver{model: model}, pm, n2, budget)
	if c.key(Solver{model: model}, pm, n2, budget) != base {
		t.Fatal("key is not a function of its inputs")
	}

	for _, in := range []struct {
		name string
		v    any
		key  func(v any) cacheKey
	}{
		{"power.TrafficModel", model, func(v any) cacheKey {
			return c.key(Solver{model: v.(power.TrafficModel)}, pm, n2, budget)
		}},
		{"technique.Params", pm, func(v any) cacheKey {
			return c.key(Solver{model: model}, v.(technique.Params), n2, budget)
		}},
	} {
		leaves := 0
		forEachLeaf(t, reflect.TypeOf(in.v), nil, func(path []int, name string) {
			leaves++
			cp := reflect.New(reflect.TypeOf(in.v)).Elem()
			cp.Set(reflect.ValueOf(in.v))
			perturb(t, in.name+name, cp.FieldByIndex(path))
			if in.key(cp.Interface()) == base {
				t.Errorf("perturbing %s%s leaves the memo key unchanged", in.name, name)
			}
		})
		if leaves == 0 {
			t.Errorf("%s: no leaf fields walked", in.name)
		}
	}
	if c.key(Solver{model: model}, pm, 2*n2, budget) == base {
		t.Error("changing n2 leaves the memo key unchanged")
	}
	if c.key(Solver{model: model}, pm, n2, 2*budget) == base {
		t.Error("changing the budget leaves the memo key unchanged")
	}
}

// forEachLeaf calls visit with the index path and dotted name of every
// non-struct field under struct type typ.
func forEachLeaf(t *testing.T, typ reflect.Type, path []int, visit func(path []int, name string)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		p := append(append([]int(nil), path...), i)
		if !f.IsExported() {
			t.Errorf("%s.%s is unexported: the key test cannot perturb it", typ, f.Name)
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			forEachLeaf(t, f.Type, p, func(sub []int, name string) { visit(sub, "."+f.Name+name) })
			continue
		}
		visit(p, "."+f.Name)
	}
}

// perturb moves one leaf field to a different value of its kind.
func perturb(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(v.Float()*1.5 + 0.25)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	default:
		t.Fatalf("%s: no perturbation for kind %s", name, v.Kind())
	}
}

// maxCores is Solver.MaxCores through the cache's memoized solve.
func maxCores(ctx context.Context, c *EvalCache, s Solver, st technique.Stack, n2, budget float64) (int, error) {
	sol, err := Bandwidth(budget, false).Solve(ctx, c, s, st.Params(), n2, 0)
	return sol.Cores, err
}
