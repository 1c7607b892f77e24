package cachesim

import "repro/internal/obs"

// Metric names exported to the process-default obs registry. They
// aggregate across every live Cache (all levels of a hierarchy included),
// complementing the per-instance Stats struct.
const (
	obsAccesses   = "cachesim.accesses"
	obsHits       = "cachesim.hits"
	obsMisses     = "cachesim.misses"
	obsEvictions  = "cachesim.evictions"
	obsWriteBacks = "cachesim.writebacks"
)

// cacheObs holds the counters a Cache flushes batch deltas into. All
// fields are nil when metrics collection is disabled, making every flush a
// single nil check (see internal/obs). The per-access hot path never
// touches these: Cache.Access accumulates into its local Stats only, and
// FlushObs publishes the deltas once per RunTrace batch — hoisting what
// used to be two atomic increments per access out of the hottest loop.
type cacheObs struct {
	accesses   *obs.Counter
	hits       *obs.Counter
	misses     *obs.Counter
	evictions  *obs.Counter
	writeBacks *obs.Counter
}

// newCacheObs fetches the package's counters from reg (a cache passes
// the process-default registry) once, at cache construction time.
func newCacheObs(reg *obs.Registry) cacheObs {
	if reg == nil {
		return cacheObs{}
	}
	return cacheObs{
		accesses:   reg.Counter(obsAccesses),
		hits:       reg.Counter(obsHits),
		misses:     reg.Counter(obsMisses),
		evictions:  reg.Counter(obsEvictions),
		writeBacks: reg.Counter(obsWriteBacks),
	}
}

// add publishes one batch's counter deltas. No-op when disabled.
func (o *cacheObs) add(d Stats) {
	if o.accesses == nil {
		return
	}
	o.accesses.Add(d.Accesses)
	o.hits.Add(d.Hits)
	o.misses.Add(d.Misses)
	o.evictions.Add(d.Evictions)
	o.writeBacks.Add(d.WriteBacks)
}

// PublishStats adds one batch's Stats deltas to the package's counters in
// the process-default registry. Batch simulators that accumulate Stats
// locally instead of driving a Cache per access — the mattson single-pass
// profiler, notably — use this so CLI metric dumps see their simulated
// work under the same cachesim.* names. No-op when collection is disabled.
func PublishStats(d Stats) {
	o := newCacheObs(obs.Default())
	o.add(d)
}

// RegisterObs pre-creates this package's counters in reg so metric dumps
// have a stable shape even for runs that never construct a cache.
func RegisterObs(reg *obs.Registry) { newCacheObs(reg) }
