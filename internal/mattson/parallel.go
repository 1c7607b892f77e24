package mattson

import (
	"math/bits"
	"runtime"
	"sync"

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
// Each worker's step packs and filters in one fused loop: it converts
// each access of the shared raw batch to the packed word the kernels
// consume (lineAddr<<1 | write, as packInto builds it) and keeps it with
// a branchless append only when the partition test passes (the "is mine"
// test is data-dependent and would mispredict ~(W-1)/W of the time as a
// branch). It then runs the fused five-size kernel and the
// single-profiler kernels over the compacted sub-stream, accumulating
// counters into worker-local partStats, which merge into the profilers
// only at feed boundaries, on the calling goroutine. With several
// workers, the calling goroutine broadcasts each batch to one goroutine
// per worker. With one, every access is the worker's own, so the step
// packs without the test and runs inline on the calling goroutine: no
// goroutine, channel or barrier.

// minPartSets is the per-worker floor: each worker must own at least this
// many sets of the smallest profiler, or partitions get too narrow for
// the filter cost to amortize and the sweep runs as one partition.
const minPartSets = 8

// parallelChunk is the driver's batch size — large enough to amortize
// the per-chunk barrier, well under fusedMaxChunk so the packed 20-bit
// counter fields cannot overflow.
const parallelChunk = 32768

// parallelWorkers resolves the worker count for a sweep whose smallest
// profiler has minSets sets: requested (0 = GOMAXPROCS) rounded down to a
// power of two — partitions must divide the power-of-two set space
// evenly — and capped so every worker keeps at least minPartSets sets.
// The result is ≥ 1; 1 means one partition, run inline.
func parallelWorkers(requested, minSets int) int {
	if requested == 1 || minSets <= 0 {
		return 1
	}
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	cap := minSets / minPartSets
	if requested > cap {
		requested = cap
	}
	if requested < 2 {
		return 1
	}
	// Round down to a power of two.
	return 1 << (bits.Len(uint(requested)) - 1)
}

// partStats accumulates one profiler's kernel counters: a worker's
// private view of its partition, merged into the shared Stats at feed
// boundaries, or a one-worker sweep's tally for one chunk.
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
// per-set ways blocks, per-worker packed scratch, and the
// access-collection buffers. Sweeps allocate the same shapes every call,
// so recycling the slabs keeps repeated sweeps (benchmark iterations,
// batch queries) near zero-alloc in steady state.
// Grabbed memory is dirty; callers initialize every word they later read.
type sweepArena struct {
	words  []uint64
	used   int
	access []trace.Access
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
		size := 2 * (a.used + n)
		if size < len(a.words) {
			size = len(a.words)
		}
		a.words = make([]uint64, size)
		a.used = 0
	}
	s := a.words[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// grabAccess returns an n-element access buffer, reusing the pooled one
// when it is large enough.
func (a *sweepArena) grabAccess(n int) []trace.Access {
	if cap(a.access) < n {
		a.access = make([]trace.Access, n)
	}
	return a.access[:n]
}

// fusedGroup is one quintet of strictly nested 8-way profilers driven by
// the fused kernel, with their indices into the sweep's profiler slice
// (which is how workers address their partStats accumulators).
type fusedGroup struct {
	p   [5]*SetProfiler
	idx [5]int
}

// curveWorker owns one contiguous range of the smallest profiler's set
// index space: the accesses with (lineAddr & pm) >> pshift == pid.
type curveWorker struct {
	pm        uint64 // S_min - 1
	pshift    uint   // log2(S_min / workers)
	pid       uint64 // this worker's partition index
	lineShift uint   // shared line geometry (all profilers agree)
	buf       []uint64
	accs      []partStats // one per profiler, indexed like profs
	fused     []fusedGroup
	singles   []int
	profs     []*SetProfiler
	in        chan []trace.Access // nil for a worker run inline
}

// step packs one raw access batch, filtering it down to the worker's
// partition in the same pass, and runs the kernels over the compacted
// sub-stream. The ways arrays are shared across workers but each set's
// block is written by exactly one worker (the partition invariant), so no
// synchronization beyond the per-chunk barrier is needed.
func (w *curveWorker) step(batch []trace.Access) {
	var sub []uint64
	if w.pm>>(w.pshift&63) == 0 {
		// pm>>pshift is the highest partition index, so this is a lone
		// worker: every access is its own, and the plain pack runs about
		// twice as fast as the filter with its data-dependent store index.
		sub = packInto(w.buf, batch, w.lineShift)
	} else {
		pm, pshift, pid := w.pm, w.pshift&63, w.pid
		lineShift := w.lineShift & 63
		buf := w.buf[:len(batch)]
		j := 0
		for i := 0; i < len(batch); i++ {
			a := batch[i]
			x := (a.Addr>>lineShift)<<1 | b2u(a.Write)
			buf[j] = x
			j += int(b2u(((x>>1)&pm)>>pshift == pid))
		}
		sub = buf[:j]
	}
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

// parallelRun drives one sweep's workers.
type parallelRun struct {
	workers []*curveWorker
	wg      sync.WaitGroup
}

// startWorkers builds w workers over the sweep's profilers and, when
// there are several, launches one goroutine each. minSets is the
// smallest profiler's set count; scratch comes from ar.
func startWorkers(w int, minSets int, ar *sweepArena, fused []fusedGroup, singles []int, profs []*SetProfiler) *parallelRun {
	pr := &parallelRun{workers: make([]*curveWorker, w)}
	pshift := uint(bits.TrailingZeros(uint(minSets / w)))
	for i := range pr.workers {
		cw := &curveWorker{
			pm:        uint64(minSets - 1),
			pshift:    pshift,
			pid:       uint64(i),
			lineShift: profs[0].lineShift,
			buf:       ar.grab(parallelChunk),
			accs:      make([]partStats, len(profs)),
			fused:     fused,
			singles:   singles,
			profs:     profs,
		}
		pr.workers[i] = cw
		if w > 1 {
			cw.in = make(chan []trace.Access, 1)
			go func() {
				for batch := range cw.in {
					cw.step(batch)
					pr.wg.Done()
				}
			}()
		}
	}
	return pr
}

// broadcast hands one raw access batch to every worker and returns once
// all of them are scheduled to pick it up; wait() blocks until they
// finish. A lone worker runs the batch before broadcast returns.
func (pr *parallelRun) broadcast(batch []trace.Access) {
	if len(pr.workers) == 1 {
		pr.workers[0].step(batch)
		return
	}
	pr.wg.Add(len(pr.workers))
	for _, w := range pr.workers {
		w.in <- batch
	}
}

func (pr *parallelRun) wait() { pr.wg.Wait() }

// merge folds every worker's accumulators into the profilers and zeroes
// them — the feed-boundary synchronization point (warmup reset, final
// stats). Callers must have wait()ed first.
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

// stop shuts the worker goroutines down. Safe after any number of
// broadcasts as long as wait() has been called since the last one.
func (pr *parallelRun) stop() {
	for _, w := range pr.workers {
		if w.in != nil {
			close(w.in)
		}
	}
}
