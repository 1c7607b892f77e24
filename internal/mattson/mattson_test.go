package mattson

import (
	"context"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/suite"
	"repro/internal/trace"
	"repro/internal/workload"
)

// naiveStack is an O(n·depth) reference for LRU stack distances: a literal
// move-to-front list.
type naiveStack struct{ lines []uint64 }

func (s *naiveStack) touch(line uint64) int {
	for i, l := range s.lines {
		if l != line {
			continue
		}
		copy(s.lines[1:i+1], s.lines[:i])
		s.lines[0] = line
		return i
	}
	s.lines = append(s.lines, 0)
	copy(s.lines[1:], s.lines[:len(s.lines)-1])
	s.lines[0] = line
	return Cold
}

// xorStream yields a deterministic pseudo-random line stream over a
// bounded footprint.
func xorStream(seed, footprint uint64) func() uint64 {
	x := seed
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % footprint
	}
}

// TestProfilerMatchesNaive checks every access's distance against the
// naive move-to-front list, and that the profiler's stack both compacted
// and doubled its slot space on the way.
func TestProfilerMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name            string
		seed, footprint uint64
		accesses        int
	}{
		// 10k accesses over 512 lines compact the stack 21 times, most of
		// them inside the 1,024-slot space it settles at.
		{"compaction", 42, 512, 10_000},
		// A 3000-line footprint takes the stack from 64 slots to 8,192
		// through its compactor's doubling path.
		{"doubling", 99, 3000, 50_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next := xorStream(tc.seed, tc.footprint)
			p := NewProfiler(0)
			var ref naiveStack
			// IDs is a prefix of the stack's slot array: its capacity is
			// the slot space, and a touch that does not lengthen it by one
			// compacted.
			compactions, slots := 0, cap(p.stack.IDs())
			for i := 0; i < tc.accesses; i++ {
				line := next()
				before := len(p.stack.IDs())
				got, want := p.touch(line), ref.touch(line)
				if got != want {
					t.Fatalf("access %d line %d: profiler distance %d, naive %d", i, line, got, want)
				}
				if len(p.stack.IDs()) != before+1 {
					compactions++
				}
			}
			if compactions < 2 || cap(p.stack.IDs()) <= slots {
				t.Errorf("%d compactions, slot space %d → %d: want compactions and a doubling", compactions, slots, cap(p.stack.IDs()))
			}
		})
	}
}

func TestHistogramSuffixSums(t *testing.T) {
	h := NewHistogram(4)
	// Stream A B A B C A: distances Cold, Cold, 1, 1, Cold, 2.
	for _, d := range []int{Cold, Cold, 1, 1, Cold, 2} {
		h.Record(d)
	}
	if h.Total() != 6 || h.cold != 3 {
		t.Fatalf("total=%d cold=%d, want 6/3", h.Total(), h.cold)
	}
	for _, tc := range []struct {
		lines  int
		misses uint64
	}{{0, 6}, {1, 6}, {2, 4}, {3, 3}, {4, 3}} {
		if got := h.Misses(tc.lines); got != tc.misses {
			t.Errorf("Misses(%d) = %d, want %d", tc.lines, got, tc.misses)
		}
	}
}

func TestEligible(t *testing.T) {
	base := cachesim.Config{LineBytes: 64, Assoc: 8, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
	if !Eligible(base) {
		t.Error("LRU/8-way/write-back should be eligible")
	}
	fa := base
	fa.Assoc = 0
	if !Eligible(fa) {
		t.Error("fully-associative LRU should be eligible")
	}
	for name, mod := range map[string]func(*cachesim.Config){
		"FIFO":          func(c *cachesim.Config) { c.Policy = cachesim.FIFO },
		"Random":        func(c *cachesim.Config) { c.Policy = cachesim.Random },
		"PLRU":          func(c *cachesim.Config) { c.Policy = cachesim.PLRU },
		"sectored":      func(c *cachesim.Config) { c.SectorBytes = 16 },
		"write-through": func(c *cachesim.Config) { c.WriteBack = false },
		"assoc>64":      func(c *cachesim.Config) { c.Assoc = 128 },
	} {
		cfg := base
		mod(&cfg)
		if Eligible(cfg) {
			t.Errorf("%s config should be ineligible", name)
		}
	}
}

// testGen builds a deterministic mixed read/write generator with enough
// footprint to stress every swept size.
func testGen(t *testing.T, seed int64) trace.Generator {
	t.Helper()
	g, err := workload.NewStackDistance(workload.StackDistanceConfig{
		Alpha:          0.5,
		HotLines:       128,
		FootprintLines: 1 << 15,
		WriteFraction:  0.3,
		WritesPerLine:  true,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSetProfilerMatchesCacheExactly(t *testing.T) {
	// Per-access lockstep comparison against the brute simulator on a
	// small, collision-heavy cache, across associativities including the
	// 64-way dirty-mask boundary.
	for _, assoc := range []int{1, 2, 8, 64} {
		cfg := cachesim.Config{
			SizeBytes: 8 * 1024, LineBytes: 64, Assoc: assoc,
			Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
		}
		c, err := cachesim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newSetProfiler(cfg, make([]uint64, setWords(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		g := testGen(t, 7+int64(assoc))
		for i := 0; i < 30_000; i++ {
			a := g.Next()
			a.Addr %= 64 * 1024 // 8x the cache: heavy eviction traffic
			c.Access(a)
			p.runBatch([]trace.Access{a})
			if i%5000 == 4999 && c.Stats() != p.Stats() {
				t.Fatalf("assoc %d, access %d: cache %+v, profiler %+v", assoc, i, c.Stats(), p.Stats())
			}
		}
		if c.Stats() != p.Stats() {
			t.Fatalf("assoc %d final: cache %+v, profiler %+v", assoc, c.Stats(), p.Stats())
		}
	}
}

func TestMissCurveFastMatchesBruteOnFig1Suite(t *testing.T) {
	// The acceptance cross-validation: identical Stats at every point of
	// the Fig 1 sweep for each suite workload, at reduced access counts.
	// Five nested 8-way sizes make one fused quintet, and workers 1 and 2
	// run both the inline and the goroutine side of the driver.
	build := suite.DefaultBuildOptions()
	build.FootprintLines = 1 << 14
	build.PhasedLines = 1024
	build.PhasedDwell = 10_000
	base := cachesim.Config{LineBytes: 64, Assoc: 8, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
	sizes := cachesim.PowerOfTwoSizes(16*1024, 256*1024)
	const n, warmup = 30_000, 6_000
	for _, wl := range suite.Paper {
		gen, err := wl.Build(build)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Collect(gen, n)
		brute, err := cachesim.MissCurve(tr, base, sizes, warmup)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			fast, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(tr), base, sizes, warmup, n, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range brute {
				if fast[i].SizeBytes != brute[i].SizeBytes || fast[i].Stats != brute[i].Stats {
					t.Errorf("%s workers %d size %d: brute %+v, fast %+v", wl.Name, workers, brute[i].SizeBytes, brute[i].Stats, fast[i].Stats)
				}
			}
		}
	}
}

func TestMissCurveFastWideAssocMatchesBrute(t *testing.T) {
	// Associativities outside the fused quintet: non-power-of-two ways,
	// and above 8 the recency-ordered scan-and-shift layout. Sizes are
	// assoc·line·2^k with 32–256 sets, so workers 4 really resolves.
	const n, warmup = 30_000, 6_000
	tr := trace.Collect(testGen(t, 77), n)
	for _, assoc := range []int{3, 6, 12, 16, 64} {
		base := cachesim.Config{LineBytes: 64, Assoc: assoc, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
		var sizes []int
		for k := 5; k <= 8; k++ {
			sizes = append(sizes, assoc*base.LineBytes<<k)
		}
		brute, err := cachesim.MissCurve(tr, base, sizes, warmup)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			fast, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(tr), base, sizes, warmup, n, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range brute {
				if fast[i].SizeBytes != brute[i].SizeBytes || fast[i].Stats != brute[i].Stats {
					t.Errorf("assoc %d workers %d size %d: brute %+v, fast %+v", assoc, workers, brute[i].SizeBytes, brute[i].Stats, fast[i].Stats)
				}
			}
		}
	}
}

func TestMissCurveFastFullyAssociative(t *testing.T) {
	base := cachesim.Config{LineBytes: 64, Assoc: 0, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
	sizes := cachesim.PowerOfTwoSizes(16*1024, 128*1024)
	const n, warmup = 20_000, 4_000
	tr := trace.Collect(testGen(t, 31), n)
	brute, err := cachesim.MissCurve(tr, base, sizes, warmup)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(tr), base, sizes, warmup, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range brute {
		b, f := brute[i].Stats, fast[i].Stats
		if f.Accesses != b.Accesses || f.Hits != b.Hits || f.Misses != b.Misses || f.FillBytes != b.FillBytes {
			t.Errorf("size %d: brute %+v, fast %+v", brute[i].SizeBytes, b, f)
		}
		diff := fast[i].MissRate() - brute[i].MissRate()
		if diff > 1e-12 || diff < -1e-12 {
			t.Errorf("size %d: miss rates differ by %g", brute[i].SizeBytes, diff)
		}
	}
}

func TestMissCurveFastFallback(t *testing.T) {
	// An ineligible policy must route through the brute simulator and
	// match it exactly.
	base := cachesim.Config{LineBytes: 64, Assoc: 8, Policy: cachesim.FIFO, WriteBack: true, WriteAllocate: true}
	sizes := []int{32 * 1024, 64 * 1024}
	const n, warmup = 10_000, 2_000
	tr := trace.Collect(testGen(t, 5), n)
	brute, err := cachesim.MissCurve(tr, base, sizes, warmup)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(tr), base, sizes, warmup, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range brute {
		if fast[i].Stats != brute[i].Stats {
			t.Errorf("size %d: brute %+v, fast %+v", brute[i].SizeBytes, brute[i].Stats, fast[i].Stats)
		}
	}
}

func TestMissCurveFastMonotone(t *testing.T) {
	// Property: LRU miss counts are non-increasing in cache size — the
	// set-refinement inclusion property the profiler is built on. Checked
	// across seeds for both set-associative and fully-associative sweeps.
	sizes := cachesim.PowerOfTwoSizes(16*1024, 512*1024)
	for _, assoc := range []int{0, 2, 8} {
		base := cachesim.Config{LineBytes: 64, Assoc: assoc, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
		for seed := int64(0); seed < 5; seed++ {
			pts, err := MissCurveFastParallel(context.Background(), testGen(t, 100+seed), base, sizes, 5_000, 25_000, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].Stats.Misses > pts[i-1].Stats.Misses {
					t.Errorf("assoc %d seed %d: misses rose from %d (%dB) to %d (%dB)",
						assoc, seed, pts[i-1].Stats.Misses, pts[i-1].SizeBytes,
						pts[i].Stats.Misses, pts[i].SizeBytes)
				}
			}
		}
	}
}

func TestMissCurveFastWarmupClamp(t *testing.T) {
	base := cachesim.Config{LineBytes: 64, Assoc: 8, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
	pts, err := MissCurveFastParallel(context.Background(), testGen(t, 1), base, []int{32 * 1024}, 10_000, 5_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Stats.Accesses != 0 {
		t.Errorf("warmup > n should leave zero recorded accesses, got %d", pts[0].Stats.Accesses)
	}
	if _, err := MissCurveFastParallel(context.Background(), testGen(t, 1), base, nil, 0, 100, 0); err == nil {
		t.Error("empty size list should error")
	}
	if _, err := MissCurveFastParallel(context.Background(), testGen(t, 1), base, []int{32 * 1024}, 0, -1, 0); err == nil {
		t.Error("negative n should error")
	}
}

// runBatch streams a batch through p, packing it 512 words at a time
// as the sweep's producer does and running the kernel a worker runs.
func (p *SetProfiler) runBatch(batch []trace.Access) {
	var pk [512]uint64
	var acc partStats
	for len(batch) > 0 {
		n := min(len(batch), len(pk))
		for i, a := range batch[:n] {
			pk[i] = (a.Addr>>p.lineShift)<<1 | b2u(a.Write)
		}
		p.runChunk(pk[:n], &acc)
		batch = batch[n:]
	}
	p.addPart(acc)
}
