package mattson

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/robust"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestParallelWorkers pins the worker-resolution rule, count and inline
// flag: power-of-two rounding and the per-worker set floor for explicit
// counts, which GOMAXPROCS does not change, and the default (requested 0
// or below) at GOMAXPROCS 1–8. Only an explicit 1, or GOMAXPROCS 1, runs
// inline; any other lone worker gets its own goroutine.
func TestParallelWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, requested, minSets, want int
		inline                          bool
	}{
		{2, 1, 1024, 1, true},                 // explicit serial
		{2, 2, 1024, 2, false},                //
		{2, 3, 1024, 2, false},                // rounds down to a power of two
		{2, 8, 1024, 8, false},                //
		{2, 8, 32, 4, false},                  // capped by minSets/minPartSets
		{2, 8, 16, 2, false},                  //
		{2, 8, 8, 1, false},                   // below the threshold: one worker
		{2, 8, 0, 1, false},                   //
		{2, 16, 1 << 20, 16, false},           //
		{2, 1000, 1 << 20, 512, false},        // power-of-two rounding at scale
		{2, 1 << 20, 1 << 30, 1 << 15, false}, // a word of buffer each
		{1, 4, 1024, 4, false},                // explicit counts ignore GOMAXPROCS
		{1, 8, 8, 1, true},                    // a lone worker at GOMAXPROCS 1
		{8, 1, 1024, 1, true},                 //
		{1, 0, 1024, 1, true},                 // the default: GOMAXPROCS
		{2, 0, 1024, 2, false},                //
		{3, 0, 1024, 2, false},                //
		{4, 0, 1024, 4, false},                //
		{5, 0, 1024, 4, false},                //
		{8, 0, 1024, 8, false},                //
		{8, -1, 1024, 8, false},               //
		{8, 0, 16, 2, false},                  // capped by minSets/minPartSets
		{4, 0, 8, 1, false},                   //
	} {
		runtime.GOMAXPROCS(tc.procs)
		if got, inline := parallelWorkers(tc.requested, tc.minSets); got != tc.want || inline != tc.inline {
			t.Errorf("GOMAXPROCS %d: parallelWorkers(%d, %d) = %d, %v; want %d, %v",
				tc.procs, tc.requested, tc.minSets, got, inline, tc.want, tc.inline)
		}
	}
}

// TestSweepReservesOneSlab pins the slab sizing: with the pool empty, a
// sweep allocates one slab of exactly its packed buffers plus every
// profiler's per-set array (16 words a set behind a stagger pad of
// (log2 sets mod 8)·16 words), even when the per-set arrays outgrow what
// the buffers leave of a slab sized for the buffers alone.
func TestSweepReservesOneSlab(t *testing.T) {
	base := cachesim.Config{
		LineBytes: 64, Assoc: 8, Policy: cachesim.LRU,
		WriteBack: true, WriteAllocate: true,
	}
	sizes := cachesim.PowerOfTwoSizes(64<<10, 2<<20)
	need := parallelChunk // one buffer set: workers 1 runs inline
	for _, sz := range sizes {
		sets := sz / 64 / 8
		need += sets*16 + bits.TrailingZeros(uint(sets))%8*16
	}
	gen, err := workload.NewStrided(1<<16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC() // two cycles empty the slab pool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := MissCurveFastParallel(context.Background(), gen, base, sizes, 0, 4096, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(need*8+64<<10); got > limit {
		t.Errorf("sweep allocated %d bytes, want at most %d: its %d-word slab plus 64 KiB", got, limit, need)
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
			p, err := newSetProfiler(cfg, make([]uint64, setWords(cfg)))
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
		// The wrapped replayer hides Batch, so the sweep draws the stream
		// through Next, as it draws a workload generator.
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

// pipelineStreams are the sweeps TestParallelPipelineMatchesSerial and
// TestParallelCancelMidFeed run: the fig01 quick configuration, whose
// 8-way sizes run the fused kernel, a 16-way sweep on the recency-ordered
// kernel, and a fused sweep whose smallest size has 8 sets, too few to
// split, so every worker count resolves to one.
func pipelineStreams(t *testing.T, accesses int) []struct {
	name   string
	base   cachesim.Config
	sizes  []int
	master []trace.Access
} {
	t.Helper()
	bc := QuickFig1Bench()
	fig01, err := bc.MasterTrace()
	if err != nil {
		t.Fatal(err)
	}
	wide := bc.Base
	wide.Assoc = 16
	return []struct {
		name   string
		base   cachesim.Config
		sizes  []int
		master []trace.Access
	}{
		{"fig01-quick", bc.Base, bc.Sizes, fig01[:accesses]},
		{"16-way", wide, cachesim.PowerOfTwoSizes(64*1024, 1024*1024), trace.Collect(testGen(t, 16), accesses)},
		{"8-set", bc.Base, cachesim.PowerOfTwoSizes(4*1024, 64*1024), fig01[:accesses]},
	}
}

// TestParallelPipelineMatchesSerial pins the pipeline at GOMAXPROCS 1–4:
// the default worker count (0) and explicit 1, 2 and 4, fed by a replay
// (Batch slices) and by the same replay behind Next only, must give every
// size the Stats of one inline worker fed through Next. The replayed loop
// is shorter than the sweep, so the replay wraps and one Batch slice ends
// in mid-chunk. Above GOMAXPROCS 1 the 8-set sweep's lone worker runs on
// its own goroutine, so under -race the detector sees the producer and a
// lone consumer share the buffers.
func TestParallelPipelineMatchesSerial(t *testing.T) {
	accesses, warmup := 120_000, 20_000
	if testing.Short() {
		accesses, warmup = 70_000, 10_000
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, st := range pipelineStreams(t, accesses) {
		loop := st.master[:accesses*3/4]
		serial, err := MissCurveFastParallel(context.Background(), struct{ trace.Generator }{trace.MustReplayer(loop)}, st.base, st.sizes, warmup, accesses, 1)
		if err != nil {
			t.Fatal(err)
		}
		for procs := 1; procs <= 4; procs++ {
			runtime.GOMAXPROCS(procs)
			for _, w := range []int{0, 1, 2, 4} {
				for _, gen := range []trace.Generator{trace.MustReplayer(loop), struct{ trace.Generator }{trace.MustReplayer(loop)}} {
					_, batched := gen.(trace.Batcher)
					got, err := MissCurveFastParallel(context.Background(), gen, st.base, st.sizes, warmup, accesses, w)
					if err != nil {
						t.Fatal(err)
					}
					for i := range serial {
						if got[i] != serial[i] {
							t.Errorf("%s GOMAXPROCS %d workers %d batched %v size %d: %+v, one inline worker %+v",
								st.name, procs, w, batched, serial[i].SizeBytes, got[i].Stats, serial[i].Stats)
						}
					}
				}
			}
		}
	}
}

// cancelAfter replays a trace and cancels the sweep's context from inside
// the stream once at accesses have been drawn, recording how many
// goroutines were live at that moment.
type cancelAfter struct {
	*trace.Replayer
	drawn, at int
	cancel    context.CancelFunc
	live      int
}

func (c *cancelAfter) count(k int) {
	c.drawn += k
	if c.drawn >= c.at && c.cancel != nil {
		c.live = runtime.NumGoroutine()
		c.cancel()
		c.cancel = nil
	}
}

func (c *cancelAfter) Next() trace.Access {
	c.count(1)
	return c.Replayer.Next()
}

func (c *cancelAfter) Batch(max int) []trace.Access {
	b := c.Replayer.Batch(max)
	c.count(len(b))
	return b
}

// TestParallelCancelMidFeed cancels a sweep in the middle of its measured
// feed. The sweep must return the robust cancellation error after drawing
// at most one more chunk, must have run the expected number of worker
// goroutines (none inline), and must leave none behind.
func TestParallelCancelMidFeed(t *testing.T) {
	const accesses, warmup, at = 200_000, 40_000, 100_000
	streams := pipelineStreams(t, accesses)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		stream, procs, workers int
		batched                bool
		goroutines             int
	}{
		{0, 1, 0, false, 0},
		{0, 2, 1, false, 0},
		{0, 2, 0, false, 2},
		{0, 2, 0, true, 2},
		{0, 4, 4, false, 4},
		{2, 2, 0, false, 1}, // a lone worker off the calling goroutine
	} {
		st := streams[tc.stream]
		runtime.GOMAXPROCS(tc.procs)
		ctx, cancel := context.WithCancel(context.Background())
		c := &cancelAfter{Replayer: trace.MustReplayer(st.master), at: at, cancel: cancel}
		var gen trace.Generator = struct{ trace.Generator }{c}
		if tc.batched {
			gen = c
		}
		start := settledGoroutines()
		_, err := MissCurveFastParallel(ctx, gen, st.base, st.sizes, warmup, accesses, tc.workers)
		cancel()
		name := fmt.Sprintf("%s GOMAXPROCS %d workers %d batched %v", st.name, tc.procs, tc.workers, tc.batched)
		if !errors.Is(err, robust.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v, want robust.ErrCanceled wrapping context.Canceled", name, err)
		}
		if c.drawn > at+parallelChunk {
			t.Errorf("%s: drew %d accesses after cancelling at %d", name, c.drawn, at)
		}
		if got := c.live - start; got != tc.goroutines {
			t.Errorf("%s: %d worker goroutines during the feed, want %d", name, got, tc.goroutines)
		}
		if n := settledGoroutines(); n != start {
			t.Errorf("%s: %d goroutines after the sweep returned, %d before it", name, n, start)
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for 10 ms (at most 5 s), so that goroutines a sweep has told to exit
// have had time to.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
