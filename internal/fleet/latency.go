package fleet

import (
	"slices"
	"sync"
	"time"
)

// latencyWindow is the per-replica sample ring size feeding the hedge
// delay quantile. Small on purpose: hedging should track the replica's
// *current* latency regime, and 64 samples of recent history adapt
// within a burst.
const latencyWindow = 64

// hedgeMinSamples gates adaptive hedging: below this many observations
// the quantile is noise and no hedge fires.
const hedgeMinSamples = 8

// latencyTracker is a fixed ring of recent request latencies for one
// replica, answering quantile queries for the hedge trigger. The zero
// value is ready to use.
type latencyTracker struct {
	mu   sync.Mutex
	buf  [latencyWindow]time.Duration
	next int
	n    int // valid samples (≤ len(buf))
}

// Observe records one successful-request latency.
func (t *latencyTracker) Observe(d time.Duration) {
	t.mu.Lock()
	t.buf[t.next] = d
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.mu.Unlock()
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the window, or
// (0, false) with fewer than hedgeMinSamples observations. It sorts a
// copy on its own stack, so a hedged request allocates nothing here.
func (t *latencyTracker) Quantile(q float64) (time.Duration, bool) {
	var window [latencyWindow]time.Duration
	t.mu.Lock()
	samples := window[:t.n]
	copy(samples, t.buf[:t.n])
	t.mu.Unlock()
	if len(samples) < hedgeMinSamples {
		return 0, false
	}
	slices.Sort(samples)
	idx := min(max(int(q*float64(len(samples)))-1, 0), len(samples)-1)
	return samples[idx], true
}
