package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// seededPair returns an lruStack holding lines 0..n-1 and a naiveLRU
// reference built by n pushes, the way the generator seeds its footprint.
func seededPair(n int) (*lruStack, *naiveLRU) {
	ref := &naiveLRU{}
	for i := 0; i < n; i++ {
		ref.pushFront(uint64(i))
	}
	return newLRUStack(n), ref
}

// contents lists the stack in rank order, top first, from the raw slots.
func (s *lruStack) contents() []uint64 {
	out := make([]uint64, 0, s.live)
	for slot := s.next - 1; slot >= 0; slot-- {
		if s.occ[slot>>6]&(1<<(slot&63)) != 0 {
			out = append(out, uint64(s.ids[slot]))
		}
	}
	return out
}

// sameStack fails unless s and ref hold the same lines in the same order.
func sameStack(t *testing.T, s *lruStack, ref *naiveLRU, step string) {
	t.Helper()
	if s.Len() != len(*ref) {
		t.Fatalf("%s: Len %d, reference %d", step, s.Len(), len(*ref))
	}
	if got, want := s.contents(), []uint64(*ref); !slices.Equal(got, want) {
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
// every operation. Ranks favour the ends (0 and Len()-1), and the sizes
// straddle the 64-slot word edges.
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
				if got, want := s.MoveToFront(rank), ref.moveToFront(rank); got != want {
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
	s := newLRUStack(10)
	for name, tc := range map[string]struct {
		fn   func()
		want string
	}{
		"rank -1":       {func() { s.MoveToFront(-1) }, "rank -1 out of range [0, 10)"},
		"rank Len()":    {func() { s.MoveToFront(10) }, "rank 10 out of range [0, 10)"},
		"empty rank 0":  {func() { newLRUStack(0).MoveToFront(0) }, "rank 0 out of range [0, 0)"},
		"id past range": {func() { s.PushFront(maxLines) }, "past the 4294967295-line id range"},
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
// against naiveLRU. Byte 0 picks the seeded size (0-129, across two word
// edges); then each byte below 0x40 pushes a new line, and any other byte
// moves a rank built from its low bits and the following byte.
func FuzzLRUStack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 130
		s := newLRUStack(n)
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
		if got := s.contents(); !slices.Equal(got, ref) {
			t.Fatalf("stack %v, naive %v", got, []uint64(ref))
		}
	})
}
