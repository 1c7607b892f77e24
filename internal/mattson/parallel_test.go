package mattson

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestParallelWorkers pins the worker-resolution rules: power-of-two
// rounding, the per-worker set floor, and the serial fallbacks.
func TestParallelWorkers(t *testing.T) {
	cases := []struct {
		requested, minSets, want int
	}{
		{1, 1024, 1},         // explicit serial
		{2, 1024, 2},         //
		{3, 1024, 2},         // rounds down to a power of two
		{8, 1024, 8},         //
		{8, 32, 4},           // capped by minSets/minPartSets
		{8, 16, 2},           //
		{8, 8, 1},            // below the threshold: serial
		{8, 0, 1},            //
		{16, 1 << 20, 16},    //
		{1000, 1 << 20, 512}, // power-of-two rounding at scale
		{-1, 1 << 20, 0},     // auto: GOMAXPROCS (checked below)
	}
	for _, tc := range cases {
		got := parallelWorkers(tc.requested, tc.minSets)
		if tc.want == 0 {
			if got < 1 {
				t.Errorf("parallelWorkers(%d, %d) = %d, want ≥ 1", tc.requested, tc.minSets, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("parallelWorkers(%d, %d) = %d, want %d", tc.requested, tc.minSets, got, tc.want)
		}
	}
}

// TestFusedMatchesSingle pins the fused five-size kernel against five
// separate runPackedCounters passes over the same chunk: equal counters,
// and equal tag and recency words in every set. Word 0 of each 16-word
// block is skipped: the fused kernel signs every slot's fingerprint with
// the leader's tag byte, so the followers' fingerprint words
// legitimately differ. The longest chunk replays a hot 256-line stream
// that never leaves the smallest cache, so the 20-bit hit field ends 257
// short of overflow.
func TestFusedMatchesSingle(t *testing.T) {
	base := cachesim.Config{
		LineBytes: 64, Assoc: 8, Policy: cachesim.LRU,
		WriteBack: true, WriteAllocate: true,
	}
	sizes := cachesim.PowerOfTwoSizes(32*1024, 512*1024)
	build := func() [5]*SetProfiler {
		var ps [5]*SetProfiler
		for i := range ps {
			cfg := base
			cfg.SizeBytes = sizes[len(sizes)-1-i] // largest first
			p, err := newSetProfiler(cfg, new(sweepArena))
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		return ps
	}
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct{ n, lines int }{
		{1, 1 << 18},
		{4096, 1 << 18},
		{fusedMaxChunk - 1, 256},
	} {
		packed := make([]uint64, tc.n)
		for i := range packed {
			packed[i] = uint64(rng.Intn(tc.lines))<<1 | b2u(rng.Intn(3) == 0)
		}
		fused, single := build(), build()
		c := runFused5(packed, fused[0], fused[1], fused[2], fused[3], fused[4])
		for k := range single {
			var got partStats
			got.addPacked(tc.n, c[k])
			h, e, wb := single[k].runPackedCounters(packed)
			want := partStats{n: uint64(tc.n), hits: h, evictions: e, writeBacks: wb}
			if got != want {
				t.Errorf("chunk %d slot %d: fused counters %+v, single %+v", tc.n, k, got, want)
			}
			for w, fw := range fused[k].ways {
				if w%16 != 0 && fw != single[k].ways[w] {
					t.Fatalf("chunk %d slot %d ways[%d]: fused %#x, single %#x", tc.n, k, w, fw, single[k].ways[w])
				}
			}
		}
	}
}

// TestParallelMatchesSerial pins the headline determinism claim on the
// canonical benchmark workload: the set-parallel sweep must produce
// bit-identical CurvePoints to the one-partition sweep for every worker
// count.
func TestParallelMatchesSerial(t *testing.T) {
	bc := QuickFig1Bench()
	accesses, warmup := bc.Accesses, bc.Warmup
	if testing.Short() {
		accesses, warmup = 60_000, 12_000
	}
	master, err := bc.MasterTrace()
	if err != nil {
		t.Fatal(err)
	}
	master = master[:min(len(master), accesses)]
	serial, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), bc.Base, bc.Sizes, warmup, accesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		// The wrapped replayer hides Batch, so the sweep collects the
		// stream into its own access buffers (double-buffered above one
		// worker) across many chunks.
		for _, gen := range []trace.Generator{trace.MustReplayer(master), struct{ trace.Generator }{trace.MustReplayer(master)}} {
			_, batched := gen.(trace.Batcher)
			if w == 1 && batched {
				continue
			}
			got, err := MissCurveFastParallel(context.Background(), gen, bc.Base, bc.Sizes, warmup, accesses, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(serial) {
				t.Fatalf("workers=%d: %d points, want %d", w, len(got), len(serial))
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Errorf("workers=%d batched=%v size=%d: %+v != one batched worker's %+v", w, batched, got[i].SizeBytes, got[i].Stats, serial[i].Stats)
				}
			}
		}
	}
}

// TestParallelMatchesSerialRandomConfigs is the quickcheck-style
// equivalence sweep: random eligible configurations, sizes, and workloads
// must be bit-identical between the serial and parallel drivers. Run
// under -race in CI with GOMAXPROCS=4, this also exercises the partition
// invariant (no two workers may ever touch the same set block).
func TestParallelMatchesSerialRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		assoc := []int{1, 2, 4, 8}[rng.Intn(4)]
		lineBytes := []int{32, 64, 128}[rng.Intn(3)]
		base := cachesim.Config{
			LineBytes: lineBytes, Assoc: assoc, Policy: cachesim.LRU,
			WriteBack: true, WriteAllocate: true,
		}
		// Between 2 and 7 power-of-two sizes, smallest ≥ 32KB so even
		// assoc=8/line=128 keeps ≥ 32 sets (enough for 2–4 workers).
		lo := 32 * 1024 << rng.Intn(2)
		hi := lo << (1 + rng.Intn(4))
		sizes := cachesim.PowerOfTwoSizes(lo, hi)
		gen, err := workload.NewStackDistance(workload.StackDistanceConfig{
			Alpha:          0.3 + rng.Float64()*0.4,
			HotLines:       64 + rng.Intn(512),
			FootprintLines: 1 << (14 + rng.Intn(4)),
			WriteFraction:  rng.Float64() * 0.5,
			WritesPerLine:  rng.Intn(2) == 0,
			Seed:           rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 40_000 + rng.Intn(40_000)
		warmup := n / 5
		master := trace.Collect(gen, n)
		name := fmt.Sprintf("trial%d_assoc%d_line%d_sizes%d", trial, assoc, lineBytes, len(sizes))
		t.Run(name, func(t *testing.T) {
			serial, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), base, sizes, warmup, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			workers := 2 << rng.Intn(2) // 2 or 4
			par, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), base, sizes, warmup, n, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Errorf("workers=%d size=%d: parallel %+v != serial %+v",
						workers, serial[i].SizeBytes, par[i].Stats, serial[i].Stats)
				}
			}
		})
	}
}
