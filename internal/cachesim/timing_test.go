package cachesim

import (
	"testing"

	"repro/internal/numeric"
)

func TestTimingValidate(t *testing.T) {
	good := Timing{L1HitNS: 1, L2HitNS: 10, MemNS: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("valid timing rejected: %v", err)
	}
	bad := []Timing{
		{L1HitNS: 0, L2HitNS: 10, MemNS: 100},
		{L1HitNS: 1, L2HitNS: 0, MemNS: 100},
		{L1HitNS: 1, L2HitNS: 10, MemNS: 0},
		{L1HitNS: 20, L2HitNS: 10, MemNS: 100}, // inverted
		{L1HitNS: 1, L2HitNS: 200, MemNS: 100}, // inverted
	}
	for i, tm := range bad {
		if err := tm.Validate(); err == nil {
			t.Errorf("case %d: invalid timing accepted: %+v", i, tm)
		}
	}
}

func TestAMATArithmetic(t *testing.T) {
	tm := Timing{L1HitNS: 2, L2HitNS: 10, MemNS: 100}
	l1 := Stats{Accesses: 100, Misses: 20} // m1 = 0.2
	l2 := Stats{Accesses: 20, Misses: 5}   // m2 = 0.25
	got, err := AMAT(l1, l2, tm)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 0.2*(10+0.25*100)
	if !numeric.AlmostEqual(got, want, 1e-12) {
		t.Errorf("AMAT = %v, want %v", got, want)
	}
}

func TestAMATPerfectCaches(t *testing.T) {
	tm := Timing{L1HitNS: 2, L2HitNS: 10, MemNS: 100}
	got, err := AMAT(Stats{Accesses: 10}, Stats{}, tm)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("all-hits AMAT = %v, want L1 latency", got)
	}
}

func TestAMATRejectsBadTiming(t *testing.T) {
	if _, err := AMAT(Stats{}, Stats{}, Timing{}); err == nil {
		t.Error("zero timing accepted")
	}
}

// TestDRAMCacheLatencyTradeoff: the §6.1 caveat quantified — a slower but
// 8x larger DRAM L2 wins on AMAT when the workload's working set exceeds
// the SRAM L2.
func TestDRAMCacheLatencyTradeoff(t *testing.T) {
	// Synthetic stats: SRAM L2 misses a lot (working set too big), the 8x
	// DRAM L2 catches almost everything.
	l1 := Stats{Accesses: 1000, Misses: 300}
	sram := Stats{Accesses: 300, Misses: 150} // 50% local miss rate
	dram := Stats{Accesses: 300, Misses: 30}  // 10% local miss rate
	sramAMAT, err := AMAT(l1, sram, Timing{L1HitNS: 2, L2HitNS: 10, MemNS: 100})
	if err != nil {
		t.Fatal(err)
	}
	dramAMAT, err := AMAT(l1, dram, Timing{L1HitNS: 2, L2HitNS: 35, MemNS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !(dramAMAT < sramAMAT) {
		t.Errorf("capacity should beat latency here: DRAM %v vs SRAM %v", dramAMAT, sramAMAT)
	}
	// And the reverse when the working set already fits the SRAM.
	smallWS := Stats{Accesses: 300, Misses: 3}
	sramAMAT2, _ := AMAT(l1, smallWS, Timing{L1HitNS: 2, L2HitNS: 10, MemNS: 100})
	dramAMAT2, _ := AMAT(l1, smallWS, Timing{L1HitNS: 2, L2HitNS: 35, MemNS: 100})
	if !(sramAMAT2 < dramAMAT2) {
		t.Errorf("latency should win for small working sets: SRAM %v vs DRAM %v", sramAMAT2, dramAMAT2)
	}
}
