package cachesim

import "fmt"

// Timing holds per-level access latencies for AMAT analysis. The paper's
// traffic model deliberately ignores timing (§3), but its DRAM-cache
// discussion flags "possible access latency increases" as an
// implementation aspect; this model quantifies that trade-off.
type Timing struct {
	L1HitNS float64 // L1 hit latency
	L2HitNS float64 // L2 hit latency (SRAM ≈ 10ns, on-chip DRAM ≈ 25–40ns)
	MemNS   float64 // off-chip memory latency
}

// Validate reports whether the latencies are physical and ordered.
func (t Timing) Validate() error {
	switch {
	case !(t.L1HitNS > 0) || !(t.L2HitNS > 0) || !(t.MemNS > 0):
		return fmt.Errorf("cachesim: latencies must be positive, got %+v", t)
	case t.L1HitNS > t.L2HitNS || t.L2HitNS > t.MemNS:
		return fmt.Errorf("cachesim: latencies must be ordered L1 ≤ L2 ≤ memory, got %+v", t)
	}
	return nil
}

// AMAT computes the average memory access time, in ns, of a two-level
// hierarchy from per-level statistics:
//
//	AMAT = L1hit + m1·(L2hit + m2·Mem)
//
// where m1 is the L1 miss rate and m2 the L2 local miss rate (L2 misses
// per L2 access). Zero-access levels contribute no miss penalty.
func AMAT(l1, l2 Stats, t Timing) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	amat := t.L1HitNS
	m1 := l1.MissRate()
	m2 := l2.MissRate()
	amat += m1 * (t.L2HitNS + m2*t.MemNS)
	return amat, nil
}
