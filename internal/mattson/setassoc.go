package mattson

import (
	"fmt"
	"math/bits"

	"repro/internal/cachesim"
)

// Each way is one uint64: the tag in the low 63 bits with the dirty flag
// packed into bit 63. Eligibility requires LineBytes ≥ 4, so a real tag
// never reaches bit 62 and neither the dirty flag nor the all-ones
// invalid sentinel can collide with one.
const (
	dirtyFlag  = uint64(1) << 63
	invalidTag = ^uint64(0)
)

// SWAR constants for byte-granular compares (fingerprint words) and the
// exact zero-byte test ^(x | ((x|hi) - lo)) & hi.
const (
	swarLo = uint64(0x0101010101010101)
	swarHi = uint64(0x8080808080808080)
)

// invInit is the initial recency vector: nibble w holds way w's recency
// depth (0 = MRU). Starting with way i at depth i makes cold fills claim
// ways in descending index order; physical placement is invisible to the
// stats, so any fixed assignment is exact.
const invInit = uint64(0x76543210)

// SetProfiler is an exact set-associative LRU write-back cache model
// stripped to the bone for miss-curve profiling. Where cachesim.Cache
// keeps per-way stamp/valid/sector metadata and dispatches on policy, the
// profiler's per-set state is designed around what each access actually
// has to touch:
//
//   - one tag word per way, physically unordered — recency never moves
//     tags, so a hit or fill stores exactly one word instead of rotating
//     the whole set;
//   - a fingerprint word (8 one-byte line signatures) that answers the
//     8-way tag scan with one load and a handful of SWAR ops, falling
//     back to a real tag compare only on the matching candidate;
//   - a recency vector word (nibble w = way w's depth, 0 = MRU), so a
//     hit reads its depth with one shift and promotes by incrementing
//     every shallower nibble in parallel, while a miss's whole-set aging
//     is a single SWAR add — which also exposes the victim (the depth
//     assoc-1 nibble overflows into its MSB) and wraps it to depth 0,
//     where the fill lands.
//
// The three live together in one 16-word block per set —
// [fingerprint, recency, tag0..tag7, pad] — so the fingerprint, the
// recency vector, and six of the eight tags share the set's first cache
// line: the common probe-verify-promote sequence touches one line where
// split fingerprint/tag arrays would touch two.
//
// It produces Stats bit-identical to cachesim.Cache for every
// configuration Eligible accepts (cross-validated in tests) at a fraction
// of the per-access cost; the sweep driver runs one instance
// per swept size and advances nested 8-way quintets in one fused loop
// (runFused5).
//
// The fingerprint/permutation representation covers Assoc ≤ 8 (one nibble
// and one byte per way). Wider set-associative configurations keep the
// tags recency-ordered instead and fall back to the fused scan-and-shift
// loop, where a hit at depth i has already rotated depths [0, i).
type SetProfiler struct {
	cfg       cachesim.Config
	assoc     int
	setMask   uint64
	setShift  uint
	lineShift uint
	lineBytes uint64
	// Assoc ≤ 8 representation: sets×16 blocks of
	// {fingerprint, recency, tag0..tag7, pad×6} (the stride is fixed at
	// 16 so in-block indexes can never escape their set; unused ways stay
	// at the invalid sentinel).
	// Assoc > 8 representation: sets×assoc tags, MRU-first.
	ways []uint64
	// vAdd flags the victim on a miss: (9-assoc) replicated over the low
	// assoc nibbles, so adding it to the recency vector pushes exactly
	// the deepest way's nibble (depth assoc-1) past 7 into its MSB.
	// aAdd ages the set: +1 in the same nibbles (the victim's nibble is
	// cleared to depth 0 afterwards, where the fill lands). The two
	// coincide at assoc 8, which runFused5 exploits.
	vAdd  uint32
	aAdd  uint32
	stats cachesim.Stats
}

// newSetProfiler builds a profiler for cfg, which must be Eligible and
// set-associative (Assoc ≥ 1; use Profiler for fully-associative sweeps).
// Its ways array is buf, setWords(cfg) words the caller carves from its
// sweep's pooled slab: the curve driver rebuilds its per-set arrays every
// call, and recycling the slab keeps repeated sweeps (benchmarks, batch
// queries) near zero-alloc. Slab memory is dirty; the init loop below
// writes every word the kernels read (the six pad words per 16-word block
// are write-only).
func newSetProfiler(cfg cachesim.Config, buf []uint64) (*SetProfiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !Eligible(cfg) || cfg.Assoc == 0 {
		return nil, fmt.Errorf("mattson: %s assoc=%d config not coverable by the per-set LRU profiler", cfg.Policy, cfg.Assoc)
	}
	sets := cfg.Sets()
	p := &SetProfiler{
		cfg:       cfg,
		assoc:     cfg.Assoc,
		setMask:   uint64(sets - 1),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		lineBytes: uint64(cfg.LineBytes),
		ways:      buf,
	}
	if cfg.Assoc <= 8 {
		p.ways = buf[len(buf)-sets*16:] // past the stagger pad
		for s := 0; s < sets; s++ {
			b := p.ways[s*16 : s*16+16]
			b[0] = ^uint64(0)
			b[1] = invInit
			for w := 2; w < 10; w++ {
				b[w] = invalidTag
			}
		}
		low := uint32(uint64(1)<<(uint(cfg.Assoc)*4) - 1)
		p.vAdd = uint32(9-cfg.Assoc) * 0x11111111 & low
		p.aAdd = 0x11111111 & low
	} else {
		for i := range p.ways {
			p.ways[i] = invalidTag
		}
	}
	return p, nil
}

// setWords is the words newSetProfiler takes for cfg's per-set array: a
// 16-word block per set up to 8 ways, behind a pad that staggers each
// size's array by a sub-page offset derived from its set count, and one
// word per way above 8. Nested sweeps index their arrays with set numbers
// that agree modulo the smaller set count, so without the stagger the
// power-of-two (page-aligned) arrays put one slot's stores and the next
// slot's loads at matching page offsets — false store-to-load
// dependencies (4K aliasing) on nearly every fused iteration.
func setWords(cfg cachesim.Config) int {
	sets := cfg.Sets()
	if cfg.Assoc <= 8 {
		return sets*16 + bits.TrailingZeros(uint(sets))&7*16
	}
	return sets * cfg.Assoc
}

// Stats returns a copy of the accumulated counters.
func (p *SetProfiler) Stats() cachesim.Stats { return p.stats }

// ResetStats zeroes the counters without disturbing cache contents — the
// warmup boundary, mirroring cachesim.Cache.ResetStats.
func (p *SetProfiler) ResetStats() { p.stats = cachesim.Stats{} }

// runChunk streams one packed chunk through the kernel for the model's
// associativity and folds the chunk's counters into acc.
func (p *SetProfiler) runChunk(packed []uint64, acc *partStats) {
	var hits, evictions, writeBacks uint64
	if p.assoc > 8 {
		hits, evictions, writeBacks = p.runShift(packed)
	} else {
		hits, evictions, writeBacks = p.runPackedCounters(packed)
	}
	acc.n += uint64(len(packed))
	acc.hits += hits
	acc.evictions += evictions
	acc.writeBacks += writeBacks
}

// b2u is a branch-free bool→uint64 (compiles to SETcc).
func b2u(b bool) uint64 {
	var v uint64
	if b {
		v = 1
	}
	return v
}

// permRare resolves the uncommon fingerprint outcome — several ways share
// the probe's signature byte and the first candidate was not the real
// match — by verifying the remaining candidates against the full tags.
// Outlined so the hot loops stay compact.
//
//go:noinline
func permRare(st []uint64, zm, base, tag, mask uint64) (uint64, uint64, uint64, bool) {
	for m := zm & (zm - 1); m != 0; m &= m - 1 {
		c := uint64(bits.TrailingZeros64(m)) >> 3
		ci := (base + 2 + c) & mask
		wc := st[ci]
		if wc&^dirtyFlag == tag {
			return c, ci, wc, true
		}
	}
	return 0, 0, 0, false
}

// runPackedCounters is the single-profiler hot loop for Assoc ≤ 8. Per access:
// one fingerprint word answers "which way, if any, can hold this tag"
// (exact zero-byte SWAR; candidates are verified against the real tag, so
// signature collisions cost a retry, never correctness). A hit reads its
// way's depth from the recency vector and promotes it to MRU by
// incrementing every strictly shallower nibble in parallel; a miss ages
// the whole set with one SWAR add, which flags the victim (its nibble
// overflows into the MSB) and wraps it to depth 0 for the fill. All slice
// indexes are pre-masked by the power-of-two array sizes, which both
// proves bounds away and keeps a stray signature byte inside the set's
// own 16-word stride.
func (p *SetProfiler) runPackedCounters(packed []uint64) (hits, evictions, writeBacks uint64) {
	st := p.ways
	setMask := p.setMask
	tagShift := p.setShift & 63
	vAdd, aAdd := p.vAdd, p.aAdd
	mask := uint64(len(st) - 1)
	// Non-emptiness lets the prove pass turn every masked index
	// (x & (len-1)) into a checked-free access.
	if len(st) == 0 {
		return
	}
	for i := 0; i < len(packed); i++ {
		w := packed[i]
		la := w >> 1
		s := la & setMask
		tag := la >> tagShift
		wd := w << 63
		tagb := tag & 0xff
		base := (s << 4) & mask
		fj := (base | 1) & mask
		fpw := st[base]
		inv := uint32(st[fj])
		x := fpw ^ (tagb * swarLo)
		zm := ^(x | ((x | swarHi) - swarLo)) & swarHi
		if zm != 0 {
			c := uint64(bits.TrailingZeros64(zm)) >> 3
			ci := (base + 2 + c) & mask
			wc := st[ci]
			ok := wc&^dirtyFlag == tag
			if !ok && zm&(zm-1) != 0 {
				c, ci, wc, ok = permRare(st, zm, base, tag, mask)
			}
			if ok {
				sh := (uint32(c) * 4) & 31
				d := (inv >> sh) & 0xf
				lt := d*0x11111111 + 0x77777777 - inv
				inc := (lt & 0x88888888) >> 3
				inv = (inv + inc) &^ (0xf << sh)
				st[ci&mask] = wc | wd
				st[fj] = uint64(inv)
				hits++
				continue
			}
		}
		v := uint64(bits.TrailingZeros32((inv+vAdd)&0x88888888)) >> 2
		inv = (inv + aAdd) &^ (0xf << ((v * 4) & 31))
		pi := (base + 2 + v) & mask
		prev := st[pi]
		st[pi] = tag | wd
		bsh := (v * 8) & 63
		st[base] = fpw&^(0xff<<bsh) | tagb<<bsh
		st[fj] = uint64(inv)
		eb := b2u(prev != invalidTag)
		evictions += eb
		writeBacks += eb & (prev >> 63)
	}
	return hits, evictions, writeBacks
}

// runShift is the fallback loop for associativities above 8, where the
// per-way nibbles and signature bytes no longer fit their single words.
// The tags are kept recency-ordered and the scan is fused with the
// recency shift: every way the scan passes slides down one depth as it
// goes, so a hit at depth i has already done its rotation and a full scan
// has already done the miss path's shift — with the evicted way left in
// hand.
func (p *SetProfiler) runShift(packed []uint64) (hits, evictions, writeBacks uint64) {
	ways := p.ways
	assoc := p.assoc
	setMask := p.setMask
	setShift := p.setShift
	for _, w := range packed {
		lineAddr := w >> 1
		setIdx := lineAddr & setMask
		tag := lineAddr >> (setShift & 63)
		base := int(setIdx) * assoc
		ws := ways[base : base+assoc]
		wdirty := w << 63
		prev := ws[0]
		if prev&^dirtyFlag == tag {
			hits++
			ws[0] = prev | wdirty
			continue
		}
		depth := assoc
		for i := 1; i < len(ws); i++ {
			cur := ws[i]
			ws[i] = prev
			if cur&^dirtyFlag == tag {
				depth = i
				ws[0] = cur | wdirty
				break
			}
			prev = cur
		}
		if depth < assoc {
			hits++
			continue
		}
		// Miss: the scan shifted the whole set down, leaving the LRU way
		// in prev. A sentinel victim means the set still had an empty way —
		// exactly the brute simulator's prefer-invalid victim choice.
		ws[0] = tag | wdirty
		if prev != invalidTag {
			evictions++
			writeBacks += prev >> 63
		}
	}
	return hits, evictions, writeBacks
}
