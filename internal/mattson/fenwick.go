package mattson

import "sort"

// fenwickStack computes LRU stack distances with a Fenwick (binary-indexed)
// tree over access-time slots. Every access is assigned the next free slot;
// the tree holds a 1 at the slot of each line's most recent access. The
// stack distance of a re-reference is then the number of 1s at slots after
// the line's previous slot — the count of distinct lines touched since —
// answered in O(log slots). When the slot space fills up, occupied slots
// are compacted to the front (preserving recency order), so the structure
// runs indefinitely on a bounded footprint.
type fenwickStack struct {
	tree []int32          // 1-indexed BIT; index s+1 covers slot s
	last map[uint64]int32 // line -> slot of its most recent access
	next int32            // next slot to assign
	live int32            // occupied slots (== len(last))
}

// newFenwickStack returns a stack with initial capacity for sizeHint
// accesses between compactions (minimum 4096).
func newFenwickStack(sizeHint int) *fenwickStack {
	n := sizeHint
	if n < 1<<12 {
		n = 1 << 12
	}
	return &fenwickStack{
		tree: make([]int32, n+1),
		last: make(map[uint64]int32, 1024),
	}
}

// add applies delta at slot (0-based).
func (f *fenwickStack) add(slot, delta int32) {
	for i := slot + 1; i < int32(len(f.tree)); i += i & -i {
		f.tree[i] += delta
	}
}

// prefix returns the number of occupied slots at positions < slot.
func (f *fenwickStack) prefix(slot int32) int32 {
	var s int32
	for i := slot; i > 0; i -= i & -i {
		s += f.tree[i]
	}
	return s
}

// Touch records an access to line and returns the number of distinct lines
// referenced since the previous access to line, or Cold on first touch.
func (f *fenwickStack) Touch(line uint64) int {
	if int(f.next) == len(f.tree)-1 {
		f.compact()
	}
	slot := f.next
	f.next++
	prev, ok := f.last[line]
	f.last[line] = slot
	if !ok {
		f.add(slot, 1)
		f.live++
		return Cold
	}
	// Occupied slots strictly after prev are exactly the distinct lines
	// whose most recent access postdates line's previous one.
	d := f.live - f.prefix(prev+1)
	f.add(prev, -1)
	f.add(slot, 1)
	return int(d)
}

// compact reassigns the occupied slots to 0..live-1 in recency order and
// rebuilds the tree, doubling the slot space if more than half the slots
// are live (the stream's footprint is approaching capacity).
func (f *fenwickStack) compact() {
	n := len(f.tree) - 1
	if int(f.live) > n/2 {
		n *= 2
	}
	type pair struct {
		line uint64
		slot int32
	}
	pairs := make([]pair, 0, f.live)
	for line, slot := range f.last {
		pairs = append(pairs, pair{line, slot})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].slot < pairs[j].slot })
	f.tree = make([]int32, n+1)
	for i, p := range pairs {
		f.last[p.line] = int32(i)
		f.add(int32(i), 1)
	}
	f.next = f.live
}

// Reset restores the empty state, retaining allocated capacity.
func (f *fenwickStack) Reset() {
	clear(f.tree)
	clear(f.last)
	f.next, f.live = 0, 0
}
