package cachesim

import (
	"testing"

	"repro/internal/trace"
)

func testHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(
		Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 0, Policy: LRU, WriteBack: true, WriteAllocate: true},
		Config{SizeBytes: 64 * 64, LineBytes: 64, Assoc: 4, Policy: LRU, WriteBack: true, WriteAllocate: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyValidation(t *testing.T) {
	_, err := NewHierarchy(
		Config{SizeBytes: 1 << 20, LineBytes: 64, Assoc: 4, Policy: LRU},
		Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 4, Policy: LRU},
	)
	if err == nil {
		t.Error("L1 > L2 accepted")
	}
	_, err = NewHierarchy(
		Config{SizeBytes: 100, LineBytes: 64},
		Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 4, Policy: LRU},
	)
	if err == nil {
		t.Error("invalid L1 accepted")
	}
	_, err = NewHierarchy(
		Config{SizeBytes: 1 << 9, LineBytes: 64, Assoc: 0, Policy: LRU},
		Config{SizeBytes: 100, LineBytes: 64},
	)
	if err == nil {
		t.Error("invalid L2 accepted")
	}
}

func TestHierarchyFiltering(t *testing.T) {
	h := testHierarchy(t)
	a := trace.Access{Addr: 0}
	l1res, l2res := h.Access(a)
	if l1res.Hit || l2res.Hit {
		t.Error("cold access hit somewhere")
	}
	// Second access hits in L1; the L2 must not even be consulted.
	l2accBefore := h.L2().Stats().Accesses
	l1res, _ = h.Access(a)
	if !l1res.Hit {
		t.Error("second access missed L1")
	}
	if h.L2().Stats().Accesses != l2accBefore {
		t.Error("L1 hit leaked to L2")
	}
}

func TestHierarchyL2CatchesL1Evictions(t *testing.T) {
	h := testHierarchy(t)
	// Touch 8 lines: L1 (4 lines) thrashes, L2 (64 lines) holds them all.
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 8; i++ {
			h.Access(trace.Access{Addr: i * 64})
		}
	}
	l2 := h.L2().Stats()
	// After the first round the L2 must hit every L1 miss.
	if l2.Misses != 8 {
		t.Errorf("L2 misses = %d, want 8 (cold only)", l2.Misses)
	}
	if got := l2.TrafficBytes(); got != 8*64 {
		t.Errorf("memory traffic = %d, want %d", got, 8*64)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := testHierarchy(t)
	h.Access(trace.Access{Addr: 0})
	h.ResetStats()
	if h.L1().Stats().Accesses != 0 || h.L2().Stats().Accesses != 0 {
		t.Error("stats survived reset")
	}
	if h.L2().Stats().TrafficBytes() != 0 {
		t.Error("traffic survived reset")
	}
}

func TestHierarchyDirtyWriteThrough(t *testing.T) {
	h := testHierarchy(t)
	// Dirty a line in L1, then thrash L1 so it evicts dirty; the write back
	// must land in the L2, not memory (L2 is large enough).
	h.Access(trace.Access{Addr: 0, Write: true})
	for i := uint64(1); i <= 4; i++ {
		h.Access(trace.Access{Addr: i * 64})
	}
	if got := h.L1().Stats().WriteBacks; got != 1 {
		t.Fatalf("L1 write backs = %d, want 1", got)
	}
	// L2 absorbed it: its write-back count is still 0.
	if got := h.L2().Stats().WriteBacks; got != 0 {
		t.Errorf("L2 write backs = %d, want 0", got)
	}
}
