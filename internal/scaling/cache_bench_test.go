package scaling

import (
	"context"
	"testing"

	"repro/internal/technique"
)

// BenchmarkEvalCacheContention measures the solver cache's hit path under
// parallel load on its one read-write lock. The key mix mirrors the serve
// tier's steady state: a few hot stacks absorb most queries while a long
// tail of cold ones keeps the map from degenerating to one entry. Every
// key is pre-solved so the benchmark isolates lookup-path lock contention
// rather than solver wall-clock; run with -cpu 1,2,4,8 to sweep the
// contention curve.
func BenchmarkEvalCacheContention(b *testing.B) {
	s := Default()
	hot := make([]technique.Stack, 4)
	for i := range hot {
		hot[i] = technique.Combine(technique.CacheCompression{Ratio: 1 + float64(i)*0.25})
	}
	cold := make([]technique.Stack, 60)
	for i := range cold {
		cold[i] = technique.Combine(technique.CacheCompression{Ratio: 2 + float64(i)*0.125})
	}
	c := NewEvalCache()
	warm := func(st technique.Stack) {
		if _, err := c.SupportableCores(context.Background(), s, st.Params(), 32, 1); err != nil {
			b.Fatal(err)
		}
	}
	for _, st := range hot {
		warm(st)
	}
	for _, st := range cold {
		warm(st)
	}
	// Resolve Params once per stack, as the engine's batch path does;
	// re-resolving per op would dwarf the lock being measured.
	hotPM := make([]technique.Params, len(hot))
	for i, st := range hot {
		hotPM[i] = st.Params()
	}
	coldPM := make([]technique.Params, len(cold))
	for i, st := range cold {
		coldPM[i] = st.Params()
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			pm := hotPM[i%len(hotPM)] // 90% hot, 10% cold
			if i%10 == 9 {
				pm = coldPM[i%len(coldPM)]
			}
			if _, err := c.SupportableCores(context.Background(), s, pm, 32, 1); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
