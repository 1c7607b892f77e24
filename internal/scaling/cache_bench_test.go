package scaling

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/technique"
)

// BenchmarkEvalCacheContention measures the solver cache's hit path under
// parallel load, sharded versus the pre-sharding single-lock layout
// (shards=1). The key mix mirrors the serve tier's steady state: a few
// hot stacks absorb most queries while a long tail of cold ones keeps the
// map from degenerating to one entry. Every key is pre-solved so the
// benchmark isolates lookup-path lock contention rather than solver
// wall-clock; run with -cpu 1,2,4,8 to sweep the contention curve.
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
	for _, shards := range []int{1, DefaultEvalCacheShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewEvalCacheShards(shards)
			warm := func(st technique.Stack) {
				if _, err := c.SupportableCoresFP(context.Background(), s, FingerprintOf(st), st, 32, 1); err != nil {
					b.Fatal(err)
				}
			}
			for _, st := range hot {
				warm(st)
			}
			for _, st := range cold {
				warm(st)
			}
			// Fingerprint once per stack, as the engine's batch path does;
			// re-resolving Params per op would dwarf the lock being measured.
			hotFP := make([]Fingerprint, len(hot))
			for i, st := range hot {
				hotFP[i] = FingerprintOf(st)
			}
			coldFP := make([]Fingerprint, len(cold))
			for i, st := range cold {
				coldFP[i] = FingerprintOf(st)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					var fp Fingerprint
					var st technique.Stack
					if i%10 < 9 { // 90% hot, 10% cold
						fp, st = hotFP[i%len(hotFP)], hot[i%len(hot)]
					} else {
						fp, st = coldFP[i%len(coldFP)], cold[i%len(cold)]
					}
					if _, err := c.SupportableCoresFP(context.Background(), s, fp, st, 32, 1); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}
