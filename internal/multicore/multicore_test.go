package multicore

import (
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testConfig(cores int) Config {
	return Config{
		Cores: cores,
		L1: cachesim.Config{
			SizeBytes: 8 * 1024, LineBytes: 64, Assoc: 2,
			Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
		},
		L2: cachesim.Config{
			SizeBytes: 256 * 1024, LineBytes: 64, Assoc: 8,
			Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
		},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(8).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	c := testConfig(0)
	if err := c.Validate(); err == nil {
		t.Error("0 cores accepted")
	}
	c = testConfig(65)
	if err := c.Validate(); err == nil {
		t.Error("65 cores accepted (sharer mask is 64-bit)")
	}
	c = testConfig(4)
	c.L1.SizeBytes = 100
	if err := c.Validate(); err == nil {
		t.Error("bad L1 accepted")
	}
	c = testConfig(4)
	c.L2.LineBytes = 48
	if err := c.Validate(); err == nil {
		t.Error("bad L2 accepted")
	}
	if _, err := New(c); err == nil {
		t.Error("New accepted bad config")
	}
	// A sectored L2, or a write-through L2 that lets store misses bypass
	// it, breaks per-line lifetime tracking: the first reports a resident
	// line as evicted, the second a lifetime for a line it never held.
	c = testConfig(4)
	c.L2.SectorBytes = 16
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "L2.SectorBytes") {
		t.Errorf("sectored L2: err = %v, want one naming L2.SectorBytes", err)
	}
	c = testConfig(4)
	c.L2.WriteBack, c.L2.WriteAllocate = false, false
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "L2.WriteAllocate") {
		t.Errorf("write-through no-allocate L2: err = %v, want one naming L2.WriteAllocate", err)
	}
	c.L2.WriteAllocate = true
	if err := c.Validate(); err != nil {
		t.Errorf("write-through write-allocate L2 rejected: %v", err)
	}
}

func TestAccessRouting(t *testing.T) {
	cmp, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 touches a line: L1(0) and L2 fill.
	if err := cmp.Access(trace.Access{Addr: 0, TID: 0}); err != nil {
		t.Fatal(err)
	}
	if cmp.L1(0).Stats().Misses != 1 || cmp.L2().Stats().Misses != 1 {
		t.Error("cold access did not propagate")
	}
	// Core 0 again: L1 hit, L2 untouched.
	l2acc := cmp.L2().Stats().Accesses
	if err := cmp.Access(trace.Access{Addr: 0, TID: 0}); err != nil {
		t.Fatal(err)
	}
	if cmp.L2().Stats().Accesses != l2acc {
		t.Error("L1 hit reached the L2")
	}
	// Core 1, same line: misses its own L1, hits the shared L2.
	if err := cmp.Access(trace.Access{Addr: 0, TID: 1}); err != nil {
		t.Fatal(err)
	}
	if cmp.L1(1).Stats().Misses != 1 {
		t.Error("core 1's L1 should miss")
	}
	if cmp.L2().Stats().Hits != 1 {
		t.Error("shared L2 should hit for core 1")
	}
	// An access from a nonexistent core errors.
	if err := cmp.Access(trace.Access{Addr: 0, TID: 7}); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestSharingDetection(t *testing.T) {
	cmp, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Line 0: touched by cores 0 and 1 (shared).
	cmp.Access(trace.Access{Addr: 0, TID: 0})
	cmp.Access(trace.Access{Addr: 0, TID: 1})
	// Lines 1..3: private to core 2.
	for i := uint64(1); i <= 3; i++ {
		cmp.Access(trace.Access{Addr: i * 64, TID: 2})
	}
	st := cmp.Sharing()
	if st.LiveLines != 4 {
		t.Errorf("live lines = %d, want 4", st.LiveLines)
	}
	if st.LiveShared != 1 {
		t.Errorf("live shared = %d, want 1", st.LiveShared)
	}
	if got := st.SharedFraction(); got != 0.25 {
		t.Errorf("shared fraction = %v, want 0.25", got)
	}
}

func TestSharedFractionDefinition(t *testing.T) {
	// Evicted lifetimes dominate the metric when present.
	s := SharingStats{EvictedLines: 10, EvictedShared: 3, LiveLines: 100, LiveShared: 100}
	if s.SharedFraction() != 0.3 {
		t.Errorf("fraction = %v, want 0.3 (evictions preferred)", s.SharedFraction())
	}
	var zero SharingStats
	if zero.SharedFraction() != 0 {
		t.Error("empty stats must be 0")
	}
}

// TestEvictRefillIsTwoLifetimes: a line that leaves the L2 and comes back
// starts a new lifetime. Line A is core 0's, then core 1's, but no two
// cores touch it within one lifetime, so no line counts as shared.
func TestEvictRefillIsTwoLifetimes(t *testing.T) {
	cmp, err := New(Config{
		Cores: 2,
		L1: cachesim.Config{
			SizeBytes: 2 * 64, LineBytes: 64, Assoc: 1,
			Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
		},
		L2: cachesim.Config{
			SizeBytes: 8 * 64, LineBytes: 64, Assoc: 1,
			Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 0, 8 * 64 // one direct-mapped L2 set
	for _, acc := range []trace.Access{{Addr: a, TID: 0}, {Addr: b, TID: 1}, {Addr: a, TID: 1}} {
		if err := cmp.Access(acc); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cmp.Sharing(), (SharingStats{EvictedLines: 2, LiveLines: 1}); got != want {
		t.Errorf("Sharing() = %+v, want %+v", got, want)
	}
}

// TestFig14Trend is the paper's Fig 14 in miniature: with a fixed shared
// region and per-thread private working sets, the fraction of shared
// evicted lines DECREASES as cores are added — the opposite of what CMP
// scaling needs (Fig 13).
func TestFig14Trend(t *testing.T) {
	fractions := make([]float64, 0, 3)
	for _, cores := range []int{4, 8, 16} {
		cfg := testConfig(cores)
		gen, err := workload.NewSharedPrivate(workload.SharedPrivateConfig{
			Threads:          cores,
			SharedLines:      2048,
			PrivateLines:     4096,
			SharedAccessFrac: 0.3,
			Skew:             1.2,
			WriteFraction:    0.2,
			Seed:             77,
		})
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cmp.Run(gen, 0, 400_000); err != nil {
			t.Fatal(err)
		}
		st := cmp.Sharing()
		if st.EvictedLines == 0 {
			t.Fatalf("%d cores: no evictions; enlarge the run", cores)
		}
		fractions = append(fractions, st.SharedFraction())
	}
	t.Logf("shared fractions at 4/8/16 cores: %v", fractions)
	for i := 1; i < len(fractions); i++ {
		if fractions[i] >= fractions[i-1] {
			t.Errorf("shared fraction did not decrease: %v", fractions)
		}
	}
	for _, f := range fractions {
		if f <= 0 || f >= 0.6 {
			t.Errorf("shared fraction %v outside plausible range", f)
		}
	}
}

func TestMemoryTraffic(t *testing.T) {
	cmp, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cmp.Access(trace.Access{Addr: 0, TID: 0})
	if got := cmp.MemoryTrafficBytes(); got != 64 {
		t.Errorf("traffic = %d, want 64", got)
	}
	// A shared hit adds no off-chip traffic: the point of data sharing.
	cmp.Access(trace.Access{Addr: 0, TID: 1})
	if got := cmp.MemoryTrafficBytes(); got != 64 {
		t.Errorf("traffic after shared hit = %d, want 64", got)
	}
}

// TestRunWarmupIsUncounted checks that Run counts exactly the accesses
// after its warmup. Evicted lifetimes and L2 traffic add up along a
// stream, so a run of n accesses with warmup w must read a plain run of n
// minus a plain run of its first w. A negative warmup counts every access,
// and one past n counts none.
func TestRunWarmupIsUncounted(t *testing.T) {
	const n, w = 60_000, 20_000
	run := func(warmup, n int) (SharingStats, uint64) {
		gen, err := workload.NewSharedPrivate(workload.SharedPrivateConfig{
			Threads: 4, SharedLines: 2048, PrivateLines: 4096,
			SharedAccessFrac: 0.3, Skew: 1.2, WriteFraction: 0.2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := New(testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := cmp.Run(gen, warmup, n); err != nil {
			t.Fatal(err)
		}
		return cmp.stats, cmp.MemoryTrafficBytes()
	}
	all, allBytes := run(0, n)
	head, headBytes := run(0, w)
	tail, tailBytes := run(w, n)
	if head.EvictedLines == 0 || tail.EvictedShared == 0 {
		t.Fatalf("head %+v, tail %+v: enlarge the run", head, tail)
	}
	want := SharingStats{EvictedLines: all.EvictedLines - head.EvictedLines, EvictedShared: all.EvictedShared - head.EvictedShared}
	if tail != want || tailBytes != allBytes-headBytes {
		t.Errorf("warmup %d of %d: %+v and %d bytes, want %+v and %d", w, n, tail, tailBytes, want, allBytes-headBytes)
	}
	if got, bytes := run(-1, n); got != all || bytes != allBytes {
		t.Errorf("warmup -1: %+v and %d bytes, want the plain run's %+v and %d", got, bytes, all, allBytes)
	}
	if got, bytes := run(n+1, n); got != (SharingStats{}) || bytes != 0 {
		t.Errorf("warmup past n: %+v and %d bytes, want none counted", got, bytes)
	}
}
