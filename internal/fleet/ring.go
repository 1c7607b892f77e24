package fleet

import (
	"sort"
	"sync/atomic"
	"time"
)

// replica is the gateway's view of one bandwall serve process: its base
// URL plus the health state the router consults.
type replica struct {
	base string // "http://host:port", no trailing slash

	br  *breaker
	lat *latencyTracker

	// healthy mirrors the last active health-check outcome. It is
	// informational (/healthz introspection); routing decisions go through
	// the breaker only, so the background checker cannot race a request's
	// failover walk into a different replica order.
	healthy atomic.Bool
	// hits counts proxy attempts sent to this replica (tests pin it to
	// prove domain errors never reach the ring).
	hits atomic.Uint64
}

func newReplica(base string, threshold int, cooldown time.Duration) *replica {
	rep := &replica{
		base: base,
		br:   newBreaker(threshold, cooldown),
		lat:  new(latencyTracker),
	}
	rep.healthy.Store(true) // optimistic until the first check says otherwise
	return rep
}

// order returns the replicas in rendezvous (highest-random-weight)
// preference order for key: each replica scores
// splitmix64(hashString(base + "|" + key)) and higher scores are
// preferred. The head of the slice owns the key — every gateway process
// computes the same owner for the same addresses, with no coordination
// state — and the tail is the deterministic failover sequence, so a
// dead owner's keys spill to the *next* scored replica rather than
// rehashing the whole ring (only 1/n of keys move when a replica joins
// or leaves).
func rendezvousOrder(reps []*replica, key string) []*replica {
	out := make([]*replica, len(reps))
	copy(out, reps)
	score := func(r *replica) uint64 { return splitmix64(hashString(r.base + "|" + key)) }
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i]), score(out[j])
		if si != sj {
			return si > sj
		}
		return out[i].base < out[j].base // total order even on hash ties
	})
	return out
}

// hashString is FNV-1a over s with the high bits folded down. It is
// deterministic across processes, so every gateway that ranks replicas
// for one canonical spec fingerprint ranks them the same way.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return h ^ h>>32
}

// splitmix64 is the finalizer from Vigna's splitmix64 generator. Raw
// FNV-1a scores of bases that differ in a few bytes — loopback replicas
// on nearby ports — are correlated: in a three-replica ring, one replica
// owned none of 30 keys about 50 times as often as uniform hashing
// predicts. The finalizer's full avalanche removes the correlation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
