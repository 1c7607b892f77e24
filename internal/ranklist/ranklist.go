// Package ranklist implements an order-statistics list: a sequence of
// uint64 values supporting push-front, rank lookup, and removal by rank in
// O(log n). It is the reference the repository's Fenwick-tree LRU stacks
// are tested against: internal/workload's lruStack, behind the
// stack-distance generator, and internal/mattson's fenwickStack, behind
// the fully-associative profiler. It shares no code with either, and no
// production code imports it; their flat arrays beat its pointer chasing.
//
// The implementation is a size-augmented treap with deterministic
// pseudo-random priorities (splitmix64 of an insertion counter), so a given
// construction seed always yields the same structure.
package ranklist

import (
	"fmt"

	"repro/internal/robust"
)

// ErrRank is the typed error for out-of-range rank arguments. The
// panicking accessors (At, RemoveAt, MoveToFront — kept panicking to
// match slice semantics on the profiler hot paths) panic with an error
// wrapping it, so a recover barrier that contains the panic still yields
// a classifiable error; the Try variants return it directly. It
// classifies as a domain error (robust.ErrDomain).
var ErrRank error = &rankError{}

// rankError keeps ErrRank's message clean while Unwrap links it into the
// robust taxonomy.
type rankError struct{}

func (*rankError) Error() string { return "ranklist: rank out of range" }
func (*rankError) Unwrap() error { return robust.ErrDomain }

// rangeErr builds the panic/return value for an out-of-range rank.
func rangeErr(i, n int) error {
	return fmt.Errorf("%w: rank %d with %d elements", ErrRank, i, n)
}

// node is one treap node holding a value; subtree sizes support rank ops.
type node struct {
	val         uint64
	prio        uint64
	size        int
	left, right *node
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() {
	n.size = 1 + size(n.left) + size(n.right)
}

// List is an order-statistics list of uint64 values. The zero value is an
// empty list ready to use.
type List struct {
	root *node
	ctr  uint64 // priority counter, hashed per insertion
	seed uint64
}

// New returns an empty list whose internal priorities derive from seed.
func New(seed uint64) *List {
	return &List{seed: seed}
}

// splitmix64 is the 64-bit finalizer from Vigna's splitmix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Len returns the number of elements.
func (l *List) Len() int { return size(l.root) }

// split divides t into (first k elements, rest).
func split(t *node, k int) (a, b *node) {
	if t == nil {
		return nil, nil
	}
	if size(t.left) >= k {
		a, t.left = split(t.left, k)
		t.update()
		return a, t
	}
	t.right, b = split(t.right, k-size(t.left)-1)
	t.update()
	return t, b
}

// merge joins a and b, all of a's elements preceding b's.
func merge(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio > b.prio:
		a.right = merge(a.right, b)
		a.update()
		return a
	default:
		b.left = merge(a, b.left)
		b.update()
		return b
	}
}

// PushFront prepends v (rank 0).
func (l *List) PushFront(v uint64) {
	l.ctr++
	n := &node{val: v, prio: splitmix64(l.seed ^ l.ctr), size: 1}
	l.root = merge(n, l.root)
}

// At returns the value at rank i (0-based). It panics if i is out of range,
// matching slice semantics; the panic value is an error wrapping ErrRank.
func (l *List) At(i int) uint64 {
	if i < 0 || i >= l.Len() {
		panic(rangeErr(i, l.Len()))
	}
	n := l.root
	for {
		ls := size(n.left)
		switch {
		case i < ls:
			n = n.left
		case i == ls:
			return n.val
		default:
			i -= ls + 1
			n = n.right
		}
	}
}

// RemoveAt removes and returns the value at rank i. It panics if i is out
// of range; the panic value is an error wrapping ErrRank.
func (l *List) RemoveAt(i int) uint64 {
	if i < 0 || i >= l.Len() {
		panic(rangeErr(i, l.Len()))
	}
	a, rest := split(l.root, i)
	mid, b := split(rest, 1)
	l.root = merge(a, b)
	return mid.val
}

// MoveToFront removes the element at rank i and reinserts it at rank 0,
// returning its value — the LRU "touch" operation. It panics like At on an
// out-of-range rank.
func (l *List) MoveToFront(i int) uint64 {
	if i == 0 {
		return l.At(0)
	}
	v := l.RemoveAt(i)
	l.PushFront(v)
	return v
}

// TryAt is At with an error return instead of a panic: callers that take
// ranks from untrusted input get a typed ErrRank without a recover.
func (l *List) TryAt(i int) (uint64, error) {
	if i < 0 || i >= l.Len() {
		return 0, rangeErr(i, l.Len())
	}
	return l.At(i), nil
}

// TryRemoveAt is RemoveAt with an error return instead of a panic.
func (l *List) TryRemoveAt(i int) (uint64, error) {
	if i < 0 || i >= l.Len() {
		return 0, rangeErr(i, l.Len())
	}
	return l.RemoveAt(i), nil
}

// TryMoveToFront is MoveToFront with an error return instead of a panic.
func (l *List) TryMoveToFront(i int) (uint64, error) {
	if i < 0 || i >= l.Len() {
		return 0, rangeErr(i, l.Len())
	}
	return l.MoveToFront(i), nil
}

// RankOfDesc returns the rank (0-based position) of value v, assuming the
// list contents are sorted in strictly descending order, and whether v is
// present. It runs in O(log n) by binary-searching the treap with subtree
// sizes. The caller is responsible for the ordering invariant — it holds
// naturally for recency stacks that PushFront monotonically increasing
// timestamps (the internal/mattson reuse-distance profiler).
func (l *List) RankOfDesc(v uint64) (int, bool) {
	n := l.root
	rank := 0
	for n != nil {
		switch {
		case v == n.val:
			return rank + size(n.left), true
		case v > n.val:
			n = n.left
		default:
			rank += size(n.left) + 1
			n = n.right
		}
	}
	return 0, false
}

// Slice returns the list contents in rank order (for tests and debugging).
func (l *List) Slice() []uint64 {
	out := make([]uint64, 0, l.Len())
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.val)
		walk(n.right)
	}
	walk(l.root)
	return out
}
