// Package workload provides synthetic memory-access generators that stand
// in for the paper's proprietary workloads (SPECjbb, SPECpower, OLTP,
// SPEC 2006, PARSEC). Each generator is deterministic given its seed.
//
// The key generator is StackDistance: it draws LRU reuse depths from a
// Pareto-tailed distribution with exponent α, so an LRU cache of L lines
// sees miss ratio ≈ P(depth > L) ∝ L^-α — by construction the power law of
// cache misses (Eq. 1) that the paper's Fig 1 calibrates against real
// workloads. It inverts the Pareto CDF from a small table built once per
// α, and runs math.Pow only for the draws a 1e-9 guard band cannot
// decide, so its stream is the one plain math.Pow inversion gives, bit
// for bit (paretoDraw states the error budget). Its LRU stack finds each
// drawn rank by scanning down from the top slot through two flat levels
// of live counts (LRUStack, which internal/mattson's profiler shares).
// Other generators model the paper's secondary observations: phased
// working sets (SPEC-like discrete miss curves), streaming scans, and
// multithreaded shared/private mixes (PARSEC-like, for Fig 14). The Zipf
// and shared/private generators read each rank from a table built once
// per skew and region size, and run math/rand's Zipf arithmetic only for
// the draws a 1e-9 guard band cannot decide, so their streams are
// rand.Zipf's clamped to the region, draw for draw (zipfDraw states the
// error budget).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/trace"
)

// LineBytes is the line granularity at which generators emit addresses.
// All generators produce line-aligned addresses; simulators may use any
// line size that divides this.
const LineBytes = 64

// StackDistanceConfig parameterizes a StackDistance generator.
type StackDistanceConfig struct {
	// Alpha is the target power-law exponent of the miss-rate curve.
	Alpha float64
	// HotLines is the Pareto scale x0: the reuse-distance floor. Every
	// draw lands at stack rank ≥ HotLines, so miss curves are power-law for
	// caches of at least HotLines lines. Must be ≥ 1.
	HotLines int
	// FootprintLines pre-populates the LRU stack, bounding the initial
	// footprint. Draws deeper than the live stack are treated as
	// compulsory misses (brand-new lines), which keeps the unconditioned
	// Pareto law m(C) = (C/HotLines)^-α exact at every cache size. Must
	// exceed HotLines and fit the uint32 line-id range (at most
	// math.MaxUint32 lines).
	FootprintLines int
	// ColdProb adds an extra compulsory-miss probability on top of the
	// Pareto tail (0 disables). Must be in [0, 1).
	ColdProb float64
	// WriteFraction is the probability an access is a store.
	WriteFraction float64
	// WritesPerLine, when true, makes write-ness a property of the line
	// rather than the access: a WriteFraction share of lines is always
	// written, the rest never. This reproduces the paper's §4.2 observation
	// that write backs are an application-constant fraction of misses
	// across cache sizes (a dirty line stays dirty however long it lives).
	WritesPerLine bool
	// Seed makes the stream reproducible.
	Seed int64
	// TID tags every emitted access.
	TID uint8
	// Region offsets all addresses, so multiple generators can share an
	// address space without colliding. Addresses fall in
	// [Region, Region + footprint).
	Region uint64
}

// Validate reports whether the configuration is usable.
func (c StackDistanceConfig) Validate() error {
	if !(c.Alpha > 0) || c.Alpha > 1.5 {
		return fmt.Errorf("workload: alpha must be in (0, 1.5], got %g", c.Alpha)
	}
	if c.HotLines < 1 {
		return fmt.Errorf("workload: HotLines must be ≥ 1, got %d", c.HotLines)
	}
	if c.FootprintLines <= c.HotLines {
		return fmt.Errorf("workload: FootprintLines (%d) must exceed HotLines (%d)", c.FootprintLines, c.HotLines)
	}
	if uint64(c.FootprintLines) > maxLines {
		return fmt.Errorf("workload: FootprintLines (%d) exceeds the %d-line id range", c.FootprintLines, uint64(maxLines))
	}
	if !(c.ColdProb >= 0 && c.ColdProb < 1) { // NaN fails too
		return fmt.Errorf("workload: ColdProb must be in [0, 1), got %g", c.ColdProb)
	}
	if !(c.WriteFraction >= 0 && c.WriteFraction <= 1) {
		return fmt.Errorf("workload: WriteFraction must be in [0, 1], got %g", c.WriteFraction)
	}
	return nil
}

// StackDistance emits accesses whose LRU stack distances follow a Pareto
// distribution P(D > x) = (x/x0)^-α, yielding power-law miss curves.
type StackDistance struct {
	cfg      StackDistanceConfig
	rng      *rand.Rand
	stack    *LRUStack
	next     uint64     // next fresh line id
	draw     paretoDraw // u → depth, from a per-α table where it is exact
	writeCut uint64     // WritesPerLine: lines whose hash mod 10^6 is below it write
}

// NewStackDistance builds the generator, pre-seeding the LRU stack with
// FootprintLines lines so Pareto draws have a deep stack to land in.
func NewStackDistance(cfg StackDistanceConfig) (*StackDistance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StackDistance{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stack:    NewLRUStack(cfg.FootprintLines),
		next:     uint64(cfg.FootprintLines),
		draw:     newParetoDraw(cfg.Alpha, cfg.HotLines),
		writeCut: writeCut(cfg.WriteFraction),
	}, nil
}

// writeCut returns the K for which h < K, over residues h in [0, 10^6),
// decides float64(h)/10^6 < frac: dividing by a positive constant is
// monotone, so the residues that pass form the prefix [0, K).
func writeCut(frac float64) uint64 {
	return uint64(sort.Search(1_000_000, func(h int) bool { return !(float64(h)/1_000_000 < frac) }))
}

// Footprint returns the number of lines on the LRU stack: the
// FootprintLines pre-seeded lines, whether or not an access has emitted
// them yet, plus one per cold miss. Before the first Next it already
// returns FootprintLines.
func (g *StackDistance) Footprint() int { return g.stack.Len() }

// WarmPrefix returns a generator that emits n reads of the top n lines of
// g's stack, oldest first, and then g's own stream. Before the first Next
// the stack holds line FootprintLines−1 on top, then FootprintLines−2 and
// so on, so the prefix is lines FootprintLines−n … FootprintLines−1. After
// it, every LRU cache of at most n lines, fully associative or modulo-set,
// holds exactly the lines the stack's top implies, in the same recency
// order: a warmup that leaves such caches in the stream's steady state
// rather than filling them from cold. The prefix takes no RNG draw and
// leaves the stack alone, so the stream after it is the one g would emit
// without it. Call it before the first Next, which moves the top; it
// returns an error then, and when n is negative or exceeds the stack.
func (g *StackDistance) WarmPrefix(n int) (trace.Generator, error) {
	if n < 0 || n > g.stack.Len() {
		return nil, fmt.Errorf("workload: warm prefix of %d lines, want 0 to the stack's %d", n, g.stack.Len())
	}
	// Every Next places a line in a fresh slot, so the slot cursor sits at
	// FootprintLines only while nothing has been drawn.
	if g.stack.next != g.cfg.FootprintLines {
		return nil, fmt.Errorf("workload: warm prefix after the first Next")
	}
	end := uint64(g.cfg.FootprintLines)
	return &warmPrefix{g: g, line: end - uint64(n), end: end}, nil
}

// warmPrefix emits reads of lines [line, end), then g's stream.
type warmPrefix struct {
	g         *StackDistance
	line, end uint64
}

// Next implements trace.Generator.
func (p *warmPrefix) Next() trace.Access {
	if p.line == p.end {
		return p.g.Next()
	}
	a := trace.Access{Addr: p.g.cfg.Region + p.line*LineBytes, TID: p.g.cfg.TID}
	p.line++
	return a
}

// Next implements trace.Generator.
func (g *StackDistance) Next() trace.Access {
	var line uint64
	depth, cold := g.sampleDepth()
	if cold || g.rng.Float64() < g.cfg.ColdProb {
		// Compulsory miss: a brand-new line, pushed on top.
		line = g.next
		g.next++
		g.stack.PushFront(line)
	} else {
		line = g.stack.MoveToFront(depth)
	}
	return trace.Access{
		Addr:  g.cfg.Region + line*LineBytes,
		TID:   g.cfg.TID,
		Write: g.isWrite(line),
	}
}

// isWrite decides store-ness for an access to line.
func (g *StackDistance) isWrite(line uint64) bool {
	if !g.cfg.WritesPerLine {
		return g.rng.Float64() < g.cfg.WriteFraction
	}
	// Deterministic per-line coin: hash the line id into [0, 10^6) and
	// compare with the cut that float64(h)/10^6 < WriteFraction makes.
	h := line
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h%1_000_000 < g.writeCut
}

// sampleDepth draws a 0-based stack rank from the Pareto reuse-distance
// distribution P(D > x) = (x/x0)^-α via inverse transform. Draws beyond the
// live stack are reported as cold: the referenced datum is "further away
// than everything seen", i.e. new. Leaving the tail unconditioned keeps the
// miss probability at a cache of C ≥ x0 lines exactly (C/x0)^-α. The
// inversion x0·u^(-1/α) is read from the generator's per-α table when a
// guard band proves the table's answer equals math.Pow's, and computed
// with math.Pow otherwise, so every depth, cold flag and RNG draw is the
// one math.Pow alone would give (see paretoDraw).
func (g *StackDistance) sampleDepth() (depth int, cold bool) {
	return g.draw.depth(g.rng.Float64(), g.stack.Len())
}

// Zipf emits accesses under the independent reference model with Zipf
// object popularity — the classic analytically tractable locality model.
// A Zipf parameter s slightly above 1 also yields near-power-law miss
// curves, providing a second, structurally different route to Fig 1.
type Zipf struct {
	rng   *rand.Rand
	zipf  *zipfDraw
	wfrac float64
	tid   uint8
	base  uint64
}

// NewZipf builds a Zipf generator over `lines` distinct lines with a
// finite skew s ≥ minZipfSkew, where line k has popularity ∝ (k + 1)^-s. Its
// stream is math/rand's Zipf (v = 1) on the same seed, clamped to the
// last line, draw for draw (zipfDraw states how). wfrac is the store
// fraction.
func NewZipf(lines uint64, s float64, wfrac float64, seed int64, tid uint8, region uint64) (*Zipf, error) {
	if lines == 0 {
		return nil, fmt.Errorf("workload: Zipf needs at least one line")
	}
	if !(s >= minZipfSkew) || math.IsInf(s, 1) { // NaN fails too; rand.Zipf never returns at +Inf
		return nil, fmt.Errorf("workload: Zipf skew must be finite and at least 1 + 1e-9, got %g", s)
	}
	if !(wfrac >= 0 && wfrac <= 1) {
		return nil, fmt.Errorf("workload: write fraction must be in [0,1], got %g", wfrac)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{rng: rng, zipf: newZipfDraw(s, lines-1), wfrac: wfrac, tid: tid, base: region}, nil
}

// Next implements trace.Generator.
func (z *Zipf) Next() trace.Access {
	line := z.zipf.next(z.rng)
	return trace.Access{
		Addr:  z.base + line*LineBytes,
		TID:   z.tid,
		Write: z.rng.Float64() < z.wfrac,
	}
}

// Strided emits a sequential scan over a fixed footprint — a streaming
// workload with no reuse within any practical cache size. Its miss curve
// is flat, the degenerate case the power law does not describe.
type Strided struct {
	lines uint64
	pos   uint64
	tid   uint8
	base  uint64
}

// NewStrided scans `lines` lines cyclically starting at region.
func NewStrided(lines uint64, tid uint8, region uint64) (*Strided, error) {
	if lines == 0 {
		return nil, fmt.Errorf("workload: Strided needs at least one line")
	}
	return &Strided{lines: lines, tid: tid, base: region}, nil
}

// Next implements trace.Generator.
func (s *Strided) Next() trace.Access {
	a := trace.Access{Addr: s.base + s.pos*LineBytes, TID: s.tid}
	s.pos++
	if s.pos == s.lines {
		s.pos = 0
	}
	return a
}

// Phased models SPEC-2006-like discrete working sets (§4.1: "individual
// SPEC2006 applications exhibit more discrete working set sizes"): it loops
// over one working set for a dwell period, then jumps to a fresh one. Its
// miss curve is a step: near-zero once the cache holds a working set.
type Phased struct {
	rng       *rand.Rand
	setLines  uint64
	dwell     int
	remaining int
	phase     uint64
	pos       uint64
	wfrac     float64
	tid       uint8
	base      uint64
}

// NewPhased loops over working sets of setLines lines, switching phases
// every dwell accesses.
func NewPhased(setLines uint64, dwell int, wfrac float64, seed int64, tid uint8, region uint64) (*Phased, error) {
	if setLines == 0 || dwell <= 0 {
		return nil, fmt.Errorf("workload: Phased needs positive set size and dwell")
	}
	if !(wfrac >= 0 && wfrac <= 1) { // NaN fails too
		return nil, fmt.Errorf("workload: write fraction must be in [0,1], got %g", wfrac)
	}
	return &Phased{
		rng:       rand.New(rand.NewSource(seed)),
		setLines:  setLines,
		dwell:     dwell,
		remaining: dwell,
		wfrac:     wfrac,
		tid:       tid,
		base:      region,
	}, nil
}

// Next implements trace.Generator.
func (p *Phased) Next() trace.Access {
	if p.remaining == 0 {
		p.phase++
		p.pos = 0
		p.remaining = p.dwell
	}
	p.remaining--
	line := p.phase*p.setLines + p.pos
	p.pos++
	if p.pos == p.setLines {
		p.pos = 0
	}
	return trace.Access{
		Addr:  p.base + line*LineBytes,
		TID:   p.tid,
		Write: p.rng.Float64() < p.wfrac,
	}
}
