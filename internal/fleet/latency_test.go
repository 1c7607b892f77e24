package fleet

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestLatencyQuantileMatchesSortSlice checks the hedge trigger's
// quantile against the reflective sort.Slice reference it replaced, on
// random windows below, at and past the ring size, and pins that a
// query allocates nothing.
func TestLatencyQuantileMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var tr latencyTracker
		n := rng.Intn(3 * latencyWindow)
		for i := 0; i < n; i++ {
			tr.Observe(time.Duration(rng.Intn(5000)) * time.Microsecond)
		}
		valid := min(n, latencyWindow)
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			got, ok := tr.Quantile(q)
			if valid < hedgeMinSamples {
				if ok {
					t.Fatalf("%d samples: quantile answered, want no answer below %d", valid, hedgeMinSamples)
				}
				continue
			}
			ref := make([]time.Duration, valid)
			copy(ref, tr.buf[:valid])
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			idx := int(q*float64(valid)) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= valid {
				idx = valid - 1
			}
			if !ok || got != ref[idx] {
				t.Fatalf("%d samples, q=%g: got %v (ok %v), want %v", valid, q, got, ok, ref[idx])
			}
		}
	}
	var full latencyTracker
	for i := 0; i < latencyWindow; i++ {
		full.Observe(time.Duration(i) * time.Millisecond)
	}
	if n := testing.AllocsPerRun(100, func() { full.Quantile(0.9) }); n != 0 {
		t.Errorf("Quantile allocates %v times a query, want 0", n)
	}
}
