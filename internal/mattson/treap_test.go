package mattson

import "repro/internal/ranklist"

// distanceStack records accesses by cache-line address and reports LRU
// stack distances: fenwickStack, and treapStack as its test reference.
type distanceStack interface {
	// Touch records an access to line and returns the number of distinct
	// lines referenced since the previous access to line, or Cold on
	// first touch.
	Touch(line uint64) int
	// Reset restores the empty state, retaining allocated capacity.
	Reset()
}

// treapStack computes stack distances with internal/ranklist's
// order-statistics treap. The list holds the last-access timestamp of every
// line seen, kept in descending order by always PushFront-ing a fresh
// (strictly increasing) timestamp; a re-referenced line's stack distance is
// then the rank of its previous timestamp (the count of lines with a more
// recent access). It is the independent reference fenwickStack is tested
// against, and bench_test.go times the two on the same stream.
type treapStack struct {
	list *ranklist.List
	last map[uint64]uint64 // line -> timestamp of its most recent access
	now  uint64
}

const treapSeed = 0x6d617474736f6e // "mattson"

func newTreapStack() *treapStack {
	return &treapStack{
		list: ranklist.New(treapSeed),
		last: make(map[uint64]uint64, 1024),
	}
}

// Touch implements distanceStack.
func (t *treapStack) Touch(line uint64) int {
	t.now++
	prev, ok := t.last[line]
	t.last[line] = t.now
	if !ok {
		t.list.PushFront(t.now)
		return Cold
	}
	rank, found := t.list.RankOfDesc(prev)
	if !found {
		// Unreachable: every timestamp handed out is in the list.
		panic("mattson: treap stack lost a timestamp")
	}
	t.list.RemoveAt(rank)
	t.list.PushFront(t.now)
	return rank
}

// Reset implements distanceStack.
func (t *treapStack) Reset() {
	t.list = ranklist.New(treapSeed)
	clear(t.last)
	t.now = 0
}
