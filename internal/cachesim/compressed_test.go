package cachesim

import (
	"testing"

	"repro/internal/trace"
)

func halfSize(uint64) int { return 32 } // every 64B line compresses 2:1

func TestNewCompressedValidation(t *testing.T) {
	good := Config{SizeBytes: 1 << 12, LineBytes: 64, Assoc: 4, Policy: LRU, WriteBack: true, WriteAllocate: true}
	if _, err := NewCompressed(good, halfSize); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := NewCompressed(good, nil); err == nil {
		t.Error("nil size model accepted")
	}
	bad := good
	bad.Assoc = 0
	if _, err := NewCompressed(bad, halfSize); err == nil {
		t.Error("fully-associative compressed cache accepted")
	}
	bad = good
	bad.SectorBytes = 16
	if _, err := NewCompressed(bad, halfSize); err == nil {
		t.Error("sectored compressed cache accepted")
	}
	bad = good
	bad.SizeBytes = 100
	if _, err := NewCompressed(bad, halfSize); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestCompressedHoldsMoreLines(t *testing.T) {
	// One set, 4 ways, 2:1 compression ⇒ 8 lines fit.
	cfg := Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4, Policy: LRU, WriteBack: true, WriteAllocate: true}
	c, err := NewCompressed(cfg, halfSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		c.Access(trace.Access{Addr: i * 64})
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", st.Evictions)
	}
	// All eight hit on re-access.
	for i := uint64(0); i < 8; i++ {
		if res := c.Access(trace.Access{Addr: i * 64}); !res.Hit {
			t.Errorf("line %d missed", i)
		}
	}
	// A ninth line forces an eviction.
	c.Access(trace.Access{Addr: 8 * 64})
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCompressedIncompressibleMatchesPlain(t *testing.T) {
	// With incompressible lines the compressed cache behaves like a plain
	// one: same capacity in lines.
	cfg := Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4, Policy: LRU, WriteBack: true, WriteAllocate: true}
	c, err := NewCompressed(cfg, func(uint64) int { return 64 })
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		c.Access(trace.Access{Addr: i * 64})
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (4 lines resident)", st.Evictions)
	}
	if res := c.Access(trace.Access{Addr: 0}); res.Hit {
		t.Error("the LRU line survived the fifth fill")
	}
}

func TestCompressedSizeClamping(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64, LineBytes: 64, Assoc: 2, Policy: LRU, WriteBack: true, WriteAllocate: true}
	c, err := NewCompressed(cfg, func(uint64) int { return -5 })
	if err != nil {
		t.Fatal(err)
	}
	c.Access(trace.Access{Addr: 0})
	// Size clamped to ≥1: 128 lines fit in the 128-byte set at size 1.
	for i := uint64(1); i < 100; i++ {
		c.Access(trace.Access{Addr: i * 64})
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("clamped tiny lines should all fit, evictions = %d", st.Evictions)
	}
	over, err := NewCompressed(cfg, func(uint64) int { return 1000 })
	if err != nil {
		t.Fatal(err)
	}
	over.Access(trace.Access{Addr: 0})
	over.Access(trace.Access{Addr: 64})
	over.Access(trace.Access{Addr: 0})
	if st := over.Stats(); st.Hits != 1 {
		t.Errorf("oversize lines clamp to line size; stats = %+v", st)
	}
}

func TestCompressedDirtyWriteBack(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64, LineBytes: 64, Assoc: 2, Policy: LRU, WriteBack: true, WriteAllocate: true}
	c, err := NewCompressed(cfg, func(uint64) int { return 64 })
	if err != nil {
		t.Fatal(err)
	}
	c.Access(trace.Access{Addr: 0, Write: true})
	c.Access(trace.Access{Addr: 64})
	res := c.Access(trace.Access{Addr: 128}) // evicts dirty line 0
	if !res.WroteBack || res.WriteBackBytes != 64 {
		t.Errorf("dirty eviction = %+v", res)
	}
}

func TestCompressedResetStats(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 12, LineBytes: 64, Assoc: 4, Policy: LRU, WriteBack: true, WriteAllocate: true}
	c, err := NewCompressed(cfg, halfSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		c.Access(trace.Access{Addr: i * 64})
	}
	c.ResetStats()
	if st := c.Stats(); st.Accesses != 0 {
		t.Errorf("stats survived reset: %+v", st)
	}
	if res := c.Access(trace.Access{Addr: 0}); !res.Hit {
		t.Error("reset dropped the contents")
	}
}

// TestCompressedMissReduction: the point of the CC technique — on a
// capacity-stressed workload, 2:1 compression cuts misses like a 2x cache.
func TestCompressedMissReduction(t *testing.T) {
	footprint := uint64(512) // lines
	accesses := make([]trace.Access, 60000)
	x := uint64(99)
	for i := range accesses {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		accesses[i] = trace.Access{Addr: (x % footprint) * 64}
	}
	cfg := Config{SizeBytes: 256 * 64, LineBytes: 64, Assoc: 8, Policy: LRU, WriteBack: true, WriteAllocate: true}
	plainCache, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := RunTrace(plainCache, accesses, 10000)
	compCache, err := NewCompressed(cfg, halfSize)
	if err != nil {
		t.Fatal(err)
	}
	comp := RunCompressedTrace(compCache, accesses, 10000)
	doubleCache, err := New(Config{SizeBytes: 512 * 64, LineBytes: 64, Assoc: 8, Policy: LRU, WriteBack: true, WriteAllocate: true})
	if err != nil {
		t.Fatal(err)
	}
	double := RunTrace(doubleCache, accesses, 10000)
	if comp.Misses >= plain.Misses {
		t.Errorf("compression did not reduce misses: %d vs %d", comp.Misses, plain.Misses)
	}
	// The compressed cache should land near the doubled cache.
	lo, hi := double.Misses*8/10, double.Misses*12/10+1
	if comp.Misses < lo || comp.Misses > hi {
		t.Errorf("compressed misses %d not within 20%% of doubled-cache %d", comp.Misses, double.Misses)
	}
}
