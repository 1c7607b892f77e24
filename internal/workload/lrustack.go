package workload

import (
	"fmt"
	"math"
	"math/bits"
)

// maxLines bounds the lines an LRUStack holds. Line ids are stored as
// uint32, so a stack names at most math.MaxUint32 lines: ids 0 through
// math.MaxUint32-1.
const maxLines = math.MaxUint32

// Sizes of the stack's two count levels, as shifts of a slot index.
const (
	blockShift = 9  // a block is 8 occupancy words, 512 slots
	superShift = 15 // a super-block is 64 blocks, 32,768 slots
)

// LRUStack is an LRU stack of dense line ids: rank 0 is the most recently
// touched line, rank Len()-1 the least. It answers two mirror queries:
// find, the slot of the line at a rank, for StackDistance's MoveToFront;
// and rank, the rank of the line in a slot, for internal/mattson's
// profiler, which Lifts each re-referenced line and reads its distance.
//
// Every touch takes the next free time slot, so live slots sorted by slot
// are the stack from bottom to top. One occupancy word marks which of 64
// slots are live; above the words sit two flat levels of live counts, one
// per block of 8 words and one per super-block of 64 blocks, each small
// enough for a uint16. Both queries scan from the top slot down through
// super-block counts, block counts and word popcounts; find then selects
// inside one word. At fig01's α values the median draw lands 0.8K–4K
// lines from the top, so the scan is short, and a touch adjusts one count
// per level. When the slots run out, the live ones compact to the front
// in recency order with a linear-time rebuild; the slot space doubles
// only when more than half of it is live, so compaction is amortized O(1)
// per touch. A slot costs about 4.1 bytes: a uint32 line id, one
// occupancy bit and a sliver of the counts.
type LRUStack struct {
	ids   []uint32 // line id at each slot; meaningful where occ is set
	occ   []uint64 // bit s%64 of occ[s/64] is set iff slot s is live
	block []uint16 // live slots in each block: slots [b<<blockShift, (b+1)<<blockShift)
	super []uint16 // live slots in each super-block, likewise by superShift
	next  int      // next free slot; the top of the stack is at next-1
	live  int      // live slots, the stack's length
}

// NewLRUStack returns a stack holding lines 0..n-1 as if pushed in that
// order, so line n-1 is on top. Its slot space starts at the smallest
// power of two that is at least 2n and 64. The caller keeps n within
// maxLines (StackDistanceConfig.Validate does).
func NewLRUStack(n int) *LRUStack {
	slots := 64
	for slots < 2*n {
		slots <<= 1
	}
	s := &LRUStack{}
	s.resize(slots)
	for i := range n {
		s.ids[i] = uint32(i)
	}
	s.rebuild(n)
	return s
}

// Len returns the number of lines on the stack.
func (s *LRUStack) Len() int { return s.live }

// PushFront puts a new line on top of the stack. It panics if line is past
// the uint32 id range rather than wrap it onto another line's id.
func (s *LRUStack) PushFront(line uint64) {
	if line >= maxLines {
		panic(fmt.Sprintf("workload: line id %d is past the %d-line id range", line, uint64(maxLines)))
	}
	if s.next == len(s.ids) {
		s.compact()
	}
	s.live++
	s.place(uint32(line))
}

// MoveToFront moves the line at rank to the top of the stack and returns
// it. It panics if rank is not in [0, Len()).
func (s *LRUStack) MoveToFront(rank int) uint64 {
	if rank < 0 || rank >= s.live {
		panic(fmt.Sprintf("workload: LRU stack rank %d out of range [0, %d)", rank, s.live))
	}
	if s.next == len(s.ids) {
		s.compact()
	}
	slot := s.find(rank)
	id := s.ids[slot]
	s.occ[slot>>6] &^= 1 << (slot & 63)
	s.block[slot>>blockShift]--
	s.super[slot>>superShift]--
	s.place(id)
	return uint64(id)
}

// place writes id into the next free slot and marks it live.
func (s *LRUStack) place(id uint32) {
	slot := s.next
	s.next++
	s.ids[slot] = id
	s.occ[slot>>6] |= 1 << (slot & 63)
	s.block[slot>>blockShift]++
	s.super[slot>>superShift]++
}

// find returns the slot of the line at rank, which is in [0, Len()). It
// skips whole super-blocks, then whole blocks, then whole words downward
// from the top slot, and selects inside the word it stops in. Every slot
// at or above next is free, so each level starts at the lower of the unit
// holding next-1 and the last unit inside the one chosen above it.
func (s *LRUStack) find(rank int) int {
	const blocksPerSuper, wordsPerBlock = 1 << (superShift - blockShift), 1 << (blockShift - 6)
	top := s.next - 1
	sb := top >> superShift
	for rank >= int(s.super[sb]) {
		rank -= int(s.super[sb])
		sb--
	}
	b := min(top>>blockShift, sb*blocksPerSuper+blocksPerSuper-1)
	for rank >= int(s.block[b]) {
		rank -= int(s.block[b])
		b--
	}
	for w := min(top>>6, b*wordsPerBlock+wordsPerBlock-1); ; w-- {
		c := bits.OnesCount64(s.occ[w])
		if rank < c {
			return w<<6 + selectBit(s.occ[w], c-1-rank)
		}
		rank -= c
	}
}

// Lift moves the line in live slot to the top of the stack and returns the
// rank it had. It panics if slot is not live. A compaction before the move
// renumbers the slots; callers that keep slots reread them from IDs.
func (s *LRUStack) Lift(slot int) int {
	if slot < 0 || slot >= s.next || s.occ[slot>>6]&(1<<(slot&63)) == 0 {
		panic(fmt.Sprintf("workload: LRU stack slot %d is not live", slot))
	}
	rank := s.rank(slot)
	if s.next == len(s.ids) {
		s.compact()
		slot = s.live - 1 - rank
	}
	id := s.ids[slot]
	s.occ[slot>>6] &^= 1 << (slot & 63)
	s.block[slot>>blockShift]--
	s.super[slot>>superShift]--
	s.place(id)
	return rank
}

// IDs returns the line id written to each slot up to the top, read-only.
// All were written since the last compaction, so a live line's slot is
// the highest index holding its id.
func (s *LRUStack) IDs() []uint32 { return s.ids[:s.next] }

// rank returns the live slots above live slot, find's mirror: those in
// its word, then, scanning down from the top as find does, the counts of
// super-blocks, blocks and words above its own, each level starting at
// the unit holding next-1, clamped into slot's unit one level up.
func (s *LRUStack) rank(slot int) int {
	const blocksPerSuper, wordsPerBlock = 1 << (superShift - blockShift), 1 << (blockShift - 6)
	top := s.next - 1
	w, b, sb := slot>>6, slot>>blockShift, slot>>superShift
	r := bits.OnesCount64(s.occ[w] >> (slot & 63) >> 1)
	for u := top >> superShift; u > sb; u-- {
		r += int(s.super[u])
	}
	for u := min(top>>blockShift, sb*blocksPerSuper+blocksPerSuper-1); u > b; u-- {
		r += int(s.block[u])
	}
	for u := min(top>>6, b*wordsPerBlock+wordsPerBlock-1); u > w; u-- {
		r += bits.OnesCount64(s.occ[u])
	}
	return r
}

// selectBit returns the index of the r-th (0-based) set bit of w, with
// Vigna's broadword select: cumulative byte popcounts locate the byte,
// and a table finishes inside it.
func selectBit(w uint64, r int) int {
	const l8, h8 = 0x0101010101010101, 0x8080808080808080
	c := w - w>>1&0x5555555555555555
	c = c&0x3333333333333333 + c>>2&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f * l8 // byte i: set bits in bytes 0..i
	place := bits.OnesCount64(((uint64(r)*l8|h8)-c)&h8) * 8
	inByte := uint64(r) - (c<<8)>>place&0xff
	return place + int(selectInByte[w>>place&0xff][inByte])
}

// selectInByte[b][r] is the index of the r-th set bit of byte b.
var selectInByte = func() (t [256][8]uint8) {
	for b := range t {
		r := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				t[b][r] = uint8(i)
				r++
			}
		}
	}
	return t
}()

// compact moves the live slots to the front in recency order, doubling the
// slot space first if more than half of it is live.
func (s *LRUStack) compact() {
	j := 0
	for w, word := range s.occ {
		for ; word != 0; word &= word - 1 {
			s.ids[j] = s.ids[w<<6+bits.TrailingZeros64(word)]
			j++
		}
	}
	if j > len(s.ids)/2 {
		ids := s.ids
		s.resize(2 * len(ids))
		copy(s.ids, ids[:j])
	}
	s.rebuild(j)
}

// resize allocates a slot space of n slots, n a power of two ≥ 64.
func (s *LRUStack) resize(n int) {
	s.ids = make([]uint32, n)
	s.occ = make([]uint64, n/64)
	s.block = make([]uint16, (n+1<<blockShift-1)>>blockShift)
	s.super = make([]uint16, (n+1<<superShift-1)>>superShift)
}

// rebuild marks slots 0..live-1 live and everything above free, and sets
// every count to match, in one pass over the words.
func (s *LRUStack) rebuild(live int) {
	clear(s.block)
	clear(s.super)
	for w := range s.occ {
		n := min(max(live-w<<6, 0), 64)
		s.occ[w] = 1<<n - 1 // at n = 64 the 1 shifts out, leaving all ones
		s.block[w>>(blockShift-6)] += uint16(n)
		s.super[w>>(superShift-6)] += uint16(n)
	}
	s.next, s.live = live, live
}
