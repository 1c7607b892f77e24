package mattson

import (
	"context"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/robust"
	"repro/internal/trace"
)

// This file holds the set-associative sweep driver; every set-associative
// sweep runs through it. Cache sets are independent under any per-set
// replacement policy: an access touches exactly the set its line address
// indexes, and no profiler state crosses set boundaries. The swept sizes
// share one base configuration, so their power-of-two set counts are
// nested, and an access's set index in every profiler agrees modulo the
// smallest set count S_min. Partitioning the S_min index space into
// contiguous ranges therefore partitions the sets of *every* profiler at
// once: worker w owns the accesses whose (lineAddr & (S_min-1)) falls in
// its range, and those accesses touch only w's sets in each profiler, in
// the original stream order. The sweep is exact — bit-identical Stats for
// any worker count — not an approximation.
//
// The driver is a two-stage pipeline. The calling goroutine produces: it
// draws each access, packs it once into the word every kernel consumes
// (lineAddr<<1 | write) and appends it to the sub-buffer of the worker
// whose range its set falls in. The workers consume: each runs the fused
// five-size kernel and the single-profiler kernels over its own
// sub-buffer, accumulating counters into worker-local partStats, which
// merge into the profilers only at feed boundaries, on the calling
// goroutine. The sub-buffers are double-buffered and one chunk is in
// flight at a time, so the producer draws chunk k+1 while the workers run
// chunk k. Each buffer set is parallelChunk words whatever the worker
// count, split evenly into the workers' sub-buffers; a chunk ends early
// when one of them fills. A sweep run inline has one worker, one buffer
// and no goroutine, channel or barrier.

// minPartSets is the per-worker floor: each worker must own at least this
// many sets of the smallest profiler, or partitions get too narrow to be
// worth a goroutine and the sweep runs as one partition.
const minPartSets = 8

// parallelChunk is the driver's batch size and the words in one buffer
// set — large enough to amortize the per-chunk barrier, well under
// fusedMaxChunk so the packed 20-bit counter fields cannot overflow.
const parallelChunk = 32768

// parallelWorkers resolves the worker count for a sweep whose smallest
// profiler has minSets sets, and whether the sweep runs inline on the
// calling goroutine. requested 0 picks GOMAXPROCS. The count is rounded
// down to a power of two — partitions must divide the power-of-two set
// space evenly — and capped so every worker keeps at least minPartSets
// sets and a word of each buffer set; it is ≥ 1. Only an explicit 1, or
// GOMAXPROCS 1, runs inline: any other lone worker gets its own
// goroutine, so the producer's draws overlap its kernels.
func parallelWorkers(requested, minSets int) (count int, inline bool) {
	procs := runtime.GOMAXPROCS(0)
	inline = requested == 1 || procs == 1
	if requested <= 0 {
		requested = procs
	}
	requested = min(requested, minSets/minPartSets, parallelChunk)
	if requested < 2 {
		return 1, inline
	}
	return 1 << (bits.Len(uint(requested)) - 1), false
}

// partStats accumulates one profiler's kernel counters: a worker's
// private view of its partition, merged into the shared Stats at feed
// boundaries.
type partStats struct {
	n, hits, evictions, writeBacks uint64
}

// addPacked folds one chunk's packed counter word (hits, evictions<<20,
// writeBacks<<40) for n accesses into the accumulator.
func (a *partStats) addPacked(n int, c uint64) {
	a.n += uint64(n)
	a.hits += c & (fusedMaxChunk - 1)
	a.evictions += (c >> 20) & (fusedMaxChunk - 1)
	a.writeBacks += c >> 40
}

// addPart folds accumulated counters into the profiler's Stats — the one
// place kernel counters become cachesim.Stats, with misses and the byte
// counts derived here. Calling goroutine only.
func (p *SetProfiler) addPart(a partStats) {
	misses := a.n - a.hits
	p.stats.Accesses += a.n
	p.stats.Hits += a.hits
	p.stats.Misses += misses
	p.stats.Evictions += a.evictions
	p.stats.WriteBacks += a.writeBacks
	p.stats.FillBytes += misses * p.lineBytes
	p.stats.WriteBackBytes += a.writeBacks * p.lineBytes
}

// sweepArena is a pooled slab allocator for one sweep's transient arrays:
// per-set ways blocks and the packed sub-buffers. Sweeps allocate the
// same shapes every call, so recycling the slabs keeps repeated sweeps
// (benchmark iterations, batch queries) near zero-alloc in steady state.
// Grabbed memory is dirty; callers initialize every word they later read.
type sweepArena struct {
	words []uint64
	used  int
}

var arenaPool = sync.Pool{New: func() any { return &sweepArena{} }}

func getArena() *sweepArena {
	a := arenaPool.Get().(*sweepArena)
	a.used = 0
	return a
}

func putArena(a *sweepArena) { arenaPool.Put(a) }

// grab returns n uninitialized words. When the current slab runs out, a
// fresh one replaces it — earlier grabs keep referencing the old slab
// until the sweep ends, and the pool retains only the newest, largest
// slab for the next call.
func (a *sweepArena) grab(n int) []uint64 {
	if a.used+n > len(a.words) {
		a.words = make([]uint64, max(2*(a.used+n), len(a.words)))
		a.used = 0
	}
	s := a.words[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// fusedGroup is one quintet of strictly nested 8-way profilers driven by
// the fused kernel, with their indices into the sweep's profiler slice
// (which is how workers address their partStats accumulators).
type fusedGroup struct {
	p   [5]*SetProfiler
	idx [5]int
}

// curveWorker runs the kernels over one partition's packed sub-stream.
type curveWorker struct {
	accs    []partStats // one per profiler, indexed like profs
	fused   []fusedGroup
	singles []int
	profs   []*SetProfiler
	in      chan []uint64 // nil for a worker run inline
}

// step runs the kernels over one packed sub-stream. The ways arrays are
// shared across workers but each set's block is written by exactly one
// worker (the partition invariant), so no synchronization beyond the
// per-chunk barrier is needed.
func (w *curveWorker) step(sub []uint64) {
	for _, g := range w.fused {
		c := runFused5(sub, g.p[0], g.p[1], g.p[2], g.p[3], g.p[4])
		for k := 0; k < 5; k++ {
			w.accs[g.idx[k]].addPacked(len(sub), c[k])
		}
	}
	for _, si := range w.singles {
		w.profs[si].runChunk(sub, &w.accs[si])
	}
}

// parallelRun drives one sweep's workers. It owns two buffer sets (one
// when inline) of one sub-buffer per worker, and the producer's write
// position in each sub-buffer of the set it fills.
type parallelRun struct {
	workers   []*curveWorker
	bufs      [2][]uint64
	room      int    // words per sub-buffer: parallelChunk / workers
	cur       int    // the buffer set the producer fills
	pos       []int  // per worker: the next free word of its sub-buffer
	pm        uint64 // S_min - 1
	pshift    uint   // log2(S_min / workers)
	lineShift uint   // shared line geometry (all profilers agree)
	inline    bool
	wg        sync.WaitGroup
}

// newParallelRun sets up the sweep's parallelWorkers(workers, minSets)
// workers, taking their buffers from ar; start launches them.
func newParallelRun(workers, minSets int, ar *sweepArena) *parallelRun {
	w, inline := parallelWorkers(workers, minSets)
	all := ar.grab(parallelChunk * (2 - int(b2u(inline))))
	return &parallelRun{
		workers: make([]*curveWorker, w),
		bufs:    [2][]uint64{all[:parallelChunk], all[len(all)-parallelChunk:]},
		room:    parallelChunk / w,
		pos:     make([]int, w),
		pm:      uint64(minSets - 1),
		pshift:  uint(bits.TrailingZeros(uint(minSets / w))),
		inline:  inline,
	}
}

// start builds the workers over the sweep's profilers and, unless the run
// is inline (w is then 1), launches one goroutine each.
func (pr *parallelRun) start(fused []fusedGroup, singles []int, profs []*SetProfiler) {
	pr.lineShift = profs[0].lineShift
	for i := range pr.workers {
		pr.pos[i] = i * pr.room
		cw := &curveWorker{accs: make([]partStats, len(profs)), fused: fused, singles: singles, profs: profs}
		pr.workers[i] = cw
		if !pr.inline {
			cw.in = make(chan []uint64, 1)
			go func() {
				for sub := range cw.in {
					cw.step(sub)
					pr.wg.Done()
				}
			}()
		}
	}
}

// feed streams count accesses from gen through the workers, a chunk of at
// most parallelChunk accesses at a time, and checks ctx between chunks.
// It returns once the workers have finished every chunk it handed out.
func (pr *parallelRun) feed(ctx context.Context, gen trace.Generator, count int) error {
	batcher, _ := gen.(trace.Batcher)
	for count > 0 {
		if err := robust.Err(ctx); err != nil {
			pr.wg.Wait()
			return err
		}
		count -= pr.fill(gen, batcher, min(count, parallelChunk))
		pr.dispatch()
	}
	pr.wg.Wait()
	return nil
}

// fill draws up to m accesses, from batcher's slices or, when batcher is
// nil, gen.Next(), packs each once and appends it to the sub-buffer of the
// worker that owns its sets; it returns how many it drew. It draws in runs
// no longer than the least free room of any sub-buffer, so no run can
// overflow one, and ends the chunk once one is full.
func (pr *parallelRun) fill(gen trace.Generator, batcher trace.Batcher, m int) int {
	buf, pos := pr.bufs[pr.cur], pr.pos
	pm, pshift, lineShift := pr.pm, pr.pshift&63, pr.lineShift&63
	drawn := 0
	for {
		k := m - drawn
		for p, at := range pos {
			k = min(k, (p+1)*pr.room-at)
		}
		if k == 0 {
			return drawn
		}
		var batch []trace.Access
		if batcher != nil {
			batch = batcher.Batch(k)
			k = len(batch)
		}
		next := func(i int) uint64 {
			var a trace.Access
			if batch != nil {
				a = batch[i]
			} else {
				a = gen.Next()
			}
			return (a.Addr>>lineShift)<<1 | b2u(a.Write)
		}
		if len(pos) == 1 {
			// A lone worker owns every set.
			for i, run := 0, buf[pos[0]:pos[0]+k]; i < k; i++ {
				run[i] = next(i)
			}
			pos[0] += k
		} else {
			for i := 0; i < k; i++ {
				x := next(i)
				p := ((x >> 1) & pm) >> pshift
				buf[pos[p]] = x
				pos[p]++
			}
		}
		drawn += k
	}
}

// dispatch hands the filled buffer set to the workers. Inline, the lone
// worker runs it before dispatch returns. Otherwise dispatch first waits
// out the chunk in flight, whose buffer set the producer fills next.
func (pr *parallelRun) dispatch() {
	buf := pr.bufs[pr.cur]
	if !pr.inline {
		pr.wg.Wait()
		pr.wg.Add(len(pr.workers))
	}
	for i, w := range pr.workers {
		sub := buf[i*pr.room : pr.pos[i]]
		pr.pos[i] = i * pr.room
		if pr.inline {
			w.step(sub)
		} else {
			w.in <- sub
		}
	}
	pr.cur ^= 1
}

// merge folds every worker's accumulators into the profilers and zeroes
// them — the feed-boundary synchronization point (warmup reset, final
// stats). Callers must have finished a feed first.
func (pr *parallelRun) merge(profs []*SetProfiler) {
	for _, w := range pr.workers {
		for i, acc := range w.accs {
			if acc.n != 0 {
				profs[i].addPart(acc)
			}
			w.accs[i] = partStats{}
		}
	}
}

// stop shuts the worker goroutines down. Safe once the last feed has
// returned.
func (pr *parallelRun) stop() {
	for _, w := range pr.workers {
		if w.in != nil {
			close(w.in)
		}
	}
}
