package workload

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// seededPair returns an LRUStack holding lines 0..n-1 and a naiveLRU
// reference built by n pushes, the way the generator seeds its footprint.
func seededPair(n int) (*LRUStack, *naiveLRU) {
	ref := &naiveLRU{}
	for i := 0; i < n; i++ {
		ref.pushFront(uint64(i))
	}
	return NewLRUStack(n), ref
}

// topLines returns the stack's top k lines (all of them if fewer) in rank
// order, read from the raw slots into buf's storage.
func (s *LRUStack) topLines(k int, buf []uint64) []uint64 {
	buf = buf[:0]
	for w := (s.next - 1) >> 6; w >= 0 && len(buf) < k; w-- {
		for word := s.occ[w]; word != 0 && len(buf) < k; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << b
			buf = append(buf, uint64(s.ids[w<<6+b]))
		}
	}
	return buf
}

// sameStack fails unless s and ref hold the same lines in the same order.
func sameStack(t *testing.T, s *LRUStack, ref *naiveLRU, step string) {
	t.Helper()
	if s.Len() != len(*ref) {
		t.Fatalf("%s: Len %d, reference %d", step, s.Len(), len(*ref))
	}
	if got, want := s.topLines(s.Len(), nil), []uint64(*ref); !slices.Equal(got, want) {
		t.Fatalf("%s: stack %v, reference %v", step, got, want)
	}
}

// panics reports the value fn panics with, or nil.
func panics(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestLRUStackMatchesNaive runs random push/move sequences against the
// naiveLRU reference, comparing every returned line and the whole stack after
// every operation. Half the moves go through MoveToFront, the generator's
// query, and half through Lift on the slot find gives, the profiler's,
// whose returned rank must be the one aimed at. Ranks favour the ends (0
// and Len()-1), and the sizes straddle the 64-slot word edges.
func TestLRUStackMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 700} {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		s, ref := seededPair(n)
		sameStack(t, s, ref, fmt.Sprintf("n=%d seeded", n))
		next := uint64(n)
		for op := 0; op < 3000; op++ {
			step := fmt.Sprintf("n=%d op %d", n, op)
			if len(*ref) == 0 || rng.Intn(4) == 0 {
				s.PushFront(next)
				ref.pushFront(next)
				next++
			} else {
				var rank int
				switch rng.Intn(4) {
				case 0:
					rank = 0
				case 1:
					rank = len(*ref) - 1
				default:
					rank = rng.Intn(len(*ref))
				}
				if rng.Intn(2) == 0 {
					if got := s.Lift(s.find(rank)); got != rank {
						t.Fatalf("%s: Lift of rank %d's slot returned rank %d", step, rank, got)
					}
					ref.moveToFront(rank)
				} else if got, want := s.MoveToFront(rank), ref.moveToFront(rank); got != want {
					t.Fatalf("%s: MoveToFront(%d) = %d, reference %d", step, rank, got, want)
				}
			}
			sameStack(t, s, ref, step)
		}
	}
}

// TestLRUStackEverySlot moves the line in each slot of a freshly seeded
// stack, every word edge included: 200 lines fill words 0-2 and part of
// word 3, and each move lands in slot 200, inside word 3.
func TestLRUStackEverySlot(t *testing.T) {
	const n = 200
	for rank := 0; rank < n; rank++ {
		s, ref := seededPair(n)
		got, want := s.MoveToFront(rank), ref.moveToFront(rank)
		if got != want || got != uint64(n-1-rank) {
			t.Fatalf("MoveToFront(%d) = %d, reference %d, want line %d", rank, got, want, n-1-rank)
		}
		sameStack(t, s, ref, fmt.Sprintf("rank %d", rank))
	}
}

// rankOf returns the rank of the line in live slot: the live slots above
// it, counted from the occupancy words alone.
func (s *LRUStack) rankOf(slot int) int {
	r := bits.OnesCount64(s.occ[slot>>6] >> (slot & 63) >> 1)
	for _, w := range s.occ[slot>>6+1:] {
		r += bits.OnesCount64(w)
	}
	return r
}

// liveAround returns the highest live slot below edge and the lowest live
// slot at or above it, or -1 for a side with none.
func (s *LRUStack) liveAround(edge int) (below, above int) {
	live := func(slot int) bool { return s.occ[slot>>6]&(1<<(slot&63)) != 0 }
	for below = edge - 1; below >= 0 && !live(below); below-- {
	}
	for above = edge; above < s.next && !live(above); above++ {
	}
	if above == s.next {
		above = -1
	}
	return below, above
}

// sameRanks fails unless rank gives every live slot the rank rankOf
// counts from the occupancy words.
func sameRanks(t *testing.T, s *LRUStack, step string) {
	t.Helper()
	for slot := 0; slot < s.next; slot++ {
		if s.occ[slot>>6]&(1<<(slot&63)) == 0 {
			continue
		}
		if got, want := s.rank(slot), s.rankOf(slot); got != want {
			t.Fatalf("%s: rank(%d) = %d, rankOf %d", step, slot, got, want)
		}
	}
}

// sameCounts fails unless every block and super-block count equals the
// live slots the occupancy words give it.
func sameCounts(t *testing.T, s *LRUStack, step string) {
	t.Helper()
	block := make([]uint16, len(s.block))
	super := make([]uint16, len(s.super))
	for w, word := range s.occ {
		block[w>>(blockShift-6)] += uint16(bits.OnesCount64(word))
		super[w>>(superShift-6)] += uint16(bits.OnesCount64(word))
	}
	if !slices.Equal(block, s.block) || !slices.Equal(super, s.super) {
		t.Fatalf("%s: block or super-block counts disagree with the occupancy words", step)
	}
}

// TestLRUStackAcrossSuperBlocks runs the naiveLRU differential on a stack
// of 65,024 lines, whose 2^17-slot space spans four super-blocks. One move
// in 32 takes the line just below or just above a block edge, half of them
// super-block edges, so the scan stops on both sides of each kind of edge;
// the rest take shallow ranks, as fig01's draws do, which keeps the naive
// reference cheap. The edge moves check rank on the slot they aim at, and
// each compaction checks rank on every live slot. With a push every 200
// operations, the first compaction finds 65,354 lines live, at most half
// the slots, and keeps the slot space; the second finds 65,682 and
// doubles it.
func TestLRUStackAcrossSuperBlocks(t *testing.T) {
	const n = 2<<superShift - 1<<blockShift
	s, ref := seededPair(n)
	slots := len(s.ids)
	if len(s.super) < 3 {
		t.Fatalf("%d lines span %d super-blocks, want at least 3", n, len(s.super))
	}
	rng := rand.New(rand.NewSource(5))
	next := uint64(n)
	var grown []int // slot space after each compaction
	for op := 0; len(grown) < 2; op++ {
		step := fmt.Sprintf("op %d", op)
		before := s.next
		if op%200 == 199 {
			s.PushFront(next)
			ref.pushFront(next)
			next++
		} else {
			rank := rng.Intn(min(len(*ref), 4096))
			if rng.Intn(32) == 0 {
				unit := 1 << blockShift
				if rng.Intn(2) == 0 {
					unit = 1 << superShift
				}
				edge := unit * (1 + rng.Intn((s.next-1)/unit))
				below, above := s.liveAround(edge)
				slot := below
				if above >= 0 && (below < 0 || rng.Intn(2) == 0) {
					slot = above
				}
				if slot >= 0 {
					rank = s.rankOf(slot)
					if got := s.rank(slot); got != rank {
						t.Fatalf("%s: rank(%d) = %d, rankOf %d", step, slot, got, rank)
					}
				}
			}
			if got, want := s.MoveToFront(rank), ref.moveToFront(rank); got != want {
				t.Fatalf("%s: MoveToFront(%d) = %d, reference %d", step, rank, got, want)
			}
		}
		if s.next <= before {
			grown = append(grown, len(s.ids))
			sameCounts(t, s, step)
			sameStack(t, s, ref, step)
			sameRanks(t, s, step)
		}
	}
	if want := []int{slots, 2 * slots}; !slices.Equal(grown, want) {
		t.Errorf("slot space after each compaction %v, want %v", grown, want)
	}
}

// TestLRUStackCompaction drives the slot space full, with the live count
// at, below and above half of it: compaction keeps the slot space at half
// or less and doubles it above half.
func TestLRUStackCompaction(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n, pushes   int
		wantSlots   int
		wantCompact int
	}{
		{"below half, no doubling", 100, 0, 256, 6},
		{"exactly half, no doubling", 128, 0, 256, 7},
		{"above half, doubles", 100, 40, 512, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ref := seededPair(tc.n)
			rng := rand.New(rand.NewSource(int64(tc.n)))
			next := uint64(tc.n)
			for i := 0; i < tc.pushes; i++ {
				s.PushFront(next)
				ref.pushFront(next)
				next++
			}
			compactions := 0
			for op := 0; op < 1000; op++ {
				before := s.next
				rank := rng.Intn(len(*ref))
				if got, want := s.MoveToFront(rank), ref.moveToFront(rank); got != want {
					t.Fatalf("op %d: MoveToFront(%d) = %d, reference %d", op, rank, got, want)
				}
				if s.next <= before {
					compactions++
					sameStack(t, s, ref, fmt.Sprintf("after compaction %d", compactions))
				}
			}
			sameStack(t, s, ref, "end")
			if len(s.ids) != tc.wantSlots || compactions != tc.wantCompact {
				t.Errorf("%d slots after %d compactions, want %d slots after %d", len(s.ids), compactions, tc.wantSlots, tc.wantCompact)
			}
		})
	}
}

func TestLRUStackPanics(t *testing.T) {
	s := NewLRUStack(10)
	moved := NewLRUStack(10)
	moved.MoveToFront(0) // line 9 leaves slot 9 for slot 10
	for name, tc := range map[string]struct {
		fn   func()
		want string
	}{
		"rank -1":        {func() { s.MoveToFront(-1) }, "rank -1 out of range [0, 10)"},
		"rank Len()":     {func() { s.MoveToFront(10) }, "rank 10 out of range [0, 10)"},
		"empty rank 0":   {func() { NewLRUStack(0).MoveToFront(0) }, "rank 0 out of range [0, 0)"},
		"id past range":  {func() { s.PushFront(maxLines) }, "past the 4294967295-line id range"},
		"lift slot -1":   {func() { s.Lift(-1) }, "slot -1 is not live"},
		"lift slot next": {func() { s.Lift(10) }, "slot 10 is not live"},
		"lift dead slot": {func() { moved.Lift(9) }, "slot 9 is not live"},
	} {
		v := panics(tc.fn)
		if msg, _ := v.(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panic %v, want one containing %q", name, v, tc.want)
		}
	}
	// The failed calls left the stack untouched, and the last id in range
	// is still accepted.
	s.PushFront(maxLines - 1)
	if s.Len() != 11 || s.MoveToFront(0) != maxLines-1 {
		t.Errorf("after the panics: Len %d, top %d", s.Len(), s.MoveToFront(0))
	}
}

// TestStackDistanceColdMissPastIDRange pins the generator's behaviour when
// its line ids run out: the cold miss that would mint an id past the
// uint32 range panics instead of wrapping onto line 0.
func TestStackDistanceColdMissPastIDRange(t *testing.T) {
	cfg := stackCfg()
	cfg.ColdProb = 0.5
	g, err := NewStackDistance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.next = maxLines
	v := panics(func() {
		for i := 0; i < 1000; i++ {
			g.Next()
		}
	})
	if msg, _ := v.(string); !strings.Contains(msg, "line id 4294967295 is past") {
		t.Fatalf("panic %v, want the id-range panic", v)
	}
}

// naiveLRU is the obvious slice LRU stack, index 0 on top.
type naiveLRU []uint64

func (n *naiveLRU) pushFront(v uint64) { *n = slices.Insert(*n, 0, v) }

func (n *naiveLRU) moveToFront(rank int) uint64 {
	st := *n
	v := st[rank]
	copy(st[1:rank+1], st[:rank])
	st[0] = v
	return v
}

// FuzzLRUStack decodes an operation sequence from the input and checks it
// against naiveLRU. Byte 0 picks the seeded size: itself below 130 (0-129
// lines, across two word edges), and itself + 320 from 130 up (450-575
// lines, across the first block edge at slot 512). Then each byte below
// 0x40 pushes a new line, and any other byte moves a rank built from its
// low bits and the following byte.
func FuzzLRUStack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])
		if n >= 130 {
			n += 320
		}
		s := NewLRUStack(n)
		ref := make(naiveLRU, n)
		for i := range ref {
			ref[i] = uint64(n - 1 - i)
		}
		next := uint64(n)
		for i := 1; i < len(data); i++ {
			if b := data[i]; b < 0x40 || len(ref) == 0 {
				s.PushFront(next)
				ref.pushFront(next)
				next++
			} else {
				r := int(b&0x3f) << 8
				if i+1 < len(data) {
					i++
					r |= int(data[i])
				}
				rank := r % len(ref)
				if got, want := s.MoveToFront(rank), ref.moveToFront(rank); got != want {
					t.Fatalf("byte %d: MoveToFront(%d) = %d, naive %d", i, rank, got, want)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("byte %d: Len %d, naive %d", i, s.Len(), len(ref))
			}
		}
		if got := s.topLines(s.Len(), nil); !slices.Equal(got, ref) {
			t.Fatalf("stack %v, naive %v", got, []uint64(ref))
		}
		sameCounts(t, s, "end")
		sameRanks(t, s, "end")
	})
}
