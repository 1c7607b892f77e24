package scaling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/robust"
	"repro/internal/technique"
)

func TestEvalCacheHitMiss(t *testing.T) {
	s := Default()
	c := NewEvalCache()
	st := technique.Combine(technique.CacheCompression{Ratio: 2})

	v1, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 32, 1)
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
	if _, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 32, 1.5); err != nil {
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
	if FingerprintOf(split) != FingerprintOf(fused) {
		t.Fatalf("fingerprints differ: %+v vs %+v", FingerprintOf(split), FingerprintOf(fused))
	}

	v1, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(split), split, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(fused), fused, 32, 1)
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
	v, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 32, 1)
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
	// The cached solve, floored, must agree with the direct MaxCoresCtx
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
				want, err := s.MaxCoresCtx(context.Background(), st, n2, budget)
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
	v1, err := c.SupportableCoresFP(context.Background(), s1, FingerprintOf(st), st, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.SupportableCoresFP(context.Background(), s2, FingerprintOf(st), st, 64, 1)
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
	if _, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 32, -1); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("bad budget error = %v, want robust.ErrDomain", err)
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("error was cached: entries = %d", c.Info(0).Entries)
	}

	// Canceled context: error now, success (a fresh miss) once the context
	// is live again — a canceled solve must not poison the entry.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SupportableCoresFP(canceled, s, FingerprintOf(st), st, 32, 1); robust.Classify(err) != robust.Canceled {
		t.Errorf("canceled solve classified %v (err %v), want Canceled", robust.Classify(err), err)
	}
	if c.Info(0).Entries != 0 {
		t.Errorf("canceled solve was cached: entries = %d", c.Info(0).Entries)
	}
	if _, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 32, 1); err != nil {
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
	if misses < 4 || misses > 16*20 {
		t.Errorf("implausible miss count %d", misses)
	}
}

func TestCoresFromExact(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{
		{0, 0},
		{0.4, 0},
		{11.0, 11},
		{11.97, 11},
		{15.999999999998, 16}, // snap: within 1e-6 of the next integer
		{16.0000001, 16},
		{17.9999, 17}, // outside the snap window: keep the floor
	}
	for _, tc := range cases {
		if got := CoresFromExact(tc.in); got != tc.want {
			t.Errorf("CoresFromExact(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// maxCores is Solver.MaxCoresCtx through the cache's memoized solve,
// floored with the shared CoresFromExact rule.
func maxCores(ctx context.Context, c *EvalCache, s Solver, st technique.Stack, n2, budget float64) (int, error) {
	p, err := c.SupportableCoresFP(ctx, s, FingerprintOf(st), st, n2, budget)
	if err != nil {
		return 0, err
	}
	return CoresFromExact(p), nil
}
