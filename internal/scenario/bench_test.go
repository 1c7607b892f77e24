package scenario

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/technique"
)

// benchSpec is a broad parameter sweep — 24 distinct stacks across four
// generations, 96 solver cells. Re-evaluating it (the repeated-stack case:
// a re-run, or a batch of specs sharing stacks) must come from the cache.
func benchSpec() *Spec {
	var cases []Case
	for i := 0; i < 8; i++ {
		cc := 1.2 + 0.3*float64(i)
		dram := 2 + float64(i)
		cases = append(cases,
			Case{Stack: []technique.Spec{{Name: "CC", Params: map[string]float64{"ratio": cc}}}},
			Case{Stack: []technique.Spec{{Name: "LC", Params: map[string]float64{"ratio": cc}}}},
			Case{Stack: []technique.Spec{{Name: "DRAM", Params: map[string]float64{"density": dram}}}},
		)
	}
	return &Spec{ID: "bench", Axis: Axis{Generations: 4}, Cases: cases}
}

// BenchmarkScenarioEval compares a cold cache (rebuilt every evaluation)
// against a warm one (shared across evaluations) on the repeated-stack
// sweep. The memoized cache must make the warm path ≥2× faster — after
// the first evaluation every cell is a hit. The warm-parallel pair shows
// what an installed metrics registry costs that path.
func BenchmarkScenarioEval(b *testing.B) {
	sp := benchSpec()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			if _, err := e.Evaluate(context.Background(), sp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := NewEngine()
		if _, err := e.Evaluate(context.Background(), sp); err != nil {
			b.Fatal(err) // prime the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Evaluate(context.Background(), sp); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The serve tier's miss path: one warm engine shared by every P, with
	// no default registry and with one installed (span log capped) the
	// way `bandwall serve` installs it. The two should cost the same.
	for _, withReg := range []bool{false, true} {
		name := "warm-parallel/no-registry"
		if withReg {
			name = "warm-parallel/registry"
		}
		b.Run(name, func(b *testing.B) {
			prev := obs.Default()
			defer obs.SetDefault(prev)
			var reg *obs.Registry
			if withReg {
				reg = obs.NewRegistry()
				reg.SetSpanCap(1024)
			}
			obs.SetDefault(reg)
			e := NewEngine()
			if _, err := e.Evaluate(context.Background(), sp); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := e.Evaluate(context.Background(), sp); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestWarmCacheSkipsSolves is the non-flaky core of the benchmark claim:
// after one evaluation, a re-evaluation of the same spec performs zero
// fresh solves.
func TestWarmCacheSkipsSolves(t *testing.T) {
	e := NewEngine()
	sp := benchSpec()
	if _, err := e.Evaluate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := e.Cache.Stats()
	o, err := e.Evaluate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := e.Cache.Stats()
	if misses != misses0 {
		t.Errorf("warm run missed %d times, want 0", misses-misses0)
	}
	if hits-hits0 != uint64(len(o.Points)) {
		t.Errorf("warm run hits = %d, want %d", hits-hits0, len(o.Points))
	}
}
