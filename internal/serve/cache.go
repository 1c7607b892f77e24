package serve

import (
	"container/list"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/scaling"
)

// respCache is a bounded LRU of rendered responses keyed by spec
// fingerprint. The solver cache underneath already memoizes the math;
// this layer additionally skips spec parsing, engine dispatch, and JSON
// rendering for repeated queries — the common case for a dashboard
// polling a fixed what-if set. It tracks per-entry hit counts, lifetime
// hit/miss totals, and retained bytes for GET /v1/cache.
//
// The cache is sharded by the low bits of the fingerprint's hash: each
// shard is its own mutex + list + map segment with its own slice of the
// capacity, so concurrent request handlers hitting different
// fingerprints never contend on one lock. Recency (and therefore
// eviction) is tracked per shard — the global bound is the sum of the
// shard bounds, and the evicted entry is the least-recent one *within
// the full shard*, not globally. Introspection (Len, Purge, Info)
// aggregates across shards.
type respCache struct {
	shards []respShard
	mask   uint64
	max    int // total capacity across shards; 0 = disabled
}

// respShard is one lock + LRU segment.
type respShard struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	m     map[string]*list.Element
	bytes int64 // retained body bytes across live entries

	hits   uint64
	misses uint64
}

type cacheEntry struct {
	key  string
	body []byte
	hits uint64
}

// DefaultCacheShards is the shard count newRespCache uses when the
// capacity allows it; small caches get fewer shards so every shard keeps
// a non-trivial LRU segment.
const DefaultCacheShards = 16

// newRespCacheShards builds a cache holding up to size entries; size 0
// means DefaultCacheSize, negative disables caching (Get always misses).
// nshards 0 means DefaultCacheShards, other values round up to a power
// of two. The shard count is additionally capped so each shard holds at
// least one entry. newRespCacheShards(size, 1) reproduces the
// pre-sharding single-lock global LRU — kept callable for contention
// benchmarks and for tests that pin strict global recency order.
func newRespCacheShards(size, nshards int) *respCache {
	if size == 0 {
		size = DefaultCacheSize
	}
	if size < 0 {
		return &respCache{max: 0}
	}
	if nshards <= 0 {
		nshards = DefaultCacheShards
	}
	if nshards&(nshards-1) != 0 {
		nshards = 1 << bits.Len(uint(nshards))
	}
	for nshards > 1 && size/nshards < 1 {
		nshards >>= 1
	}
	c := &respCache{shards: make([]respShard, nshards), mask: uint64(nshards - 1), max: size}
	per := size / nshards
	extra := size % nshards // spread the remainder so capacities sum to size
	for i := range c.shards {
		sh := &c.shards[i]
		sh.max = per
		if i < extra {
			sh.max++
		}
		sh.ll = list.New()
		sh.m = make(map[string]*list.Element, sh.max)
	}
	return c
}

// shard picks the segment for one key: low bits of the FNV-1a hash over
// the fingerprint string — the same function the fleet gateway uses to
// pick the replica, one level down.
func (c *respCache) shard(key string) *respShard {
	return &c.shards[scaling.HashString(key)&c.mask]
}

// Get returns the cached body for key, if any.
func (c *respCache) Get(key string) ([]byte, bool) {
	if c.max == 0 {
		return nil, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[key]
	if !ok {
		sh.misses++
		return nil, false
	}
	sh.hits++
	sh.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	e.hits++
	return e.body, true
}

// Put stores body under key, evicting the least-recently-used entry in
// the key's shard when that shard is full. body is retained; callers
// must not mutate it afterwards.
func (c *respCache) Put(key string, body []byte) {
	if c.max == 0 {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		e := el.Value.(*cacheEntry)
		sh.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		sh.ll.MoveToFront(el)
		return
	}
	if sh.ll.Len() >= sh.max {
		oldest := sh.ll.Back()
		sh.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		sh.bytes -= int64(len(e.body))
		delete(sh.m, e.key)
	}
	sh.m[key] = sh.ll.PushFront(&cacheEntry{key: key, body: body})
	sh.bytes += int64(len(body))
}

// Purge drops every cached response and returns how many were held.
// Lifetime hit/miss counters are preserved. Shards purge one at a time,
// so a purge concurrent with request load never blocks every segment at
// once.
func (c *respCache) Purge() int {
	if c.max == 0 {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.ll.Init()
		sh.m = make(map[string]*list.Element, sh.max)
		sh.bytes = 0
		sh.mu.Unlock()
	}
	return n
}

// RespEntryInfo is one cached response in the GET /v1/cache top ranking.
type RespEntryInfo struct {
	Fingerprint string `json:"fingerprint"` // abbreviated spec fingerprint
	Hits        uint64 `json:"hits"`
	Bytes       int    `json:"bytes"`
}

// RespCacheInfo summarizes the response LRU for GET /v1/cache.
type RespCacheInfo struct {
	Entries int             `json:"entries"`
	Max     int             `json:"max"`
	Shards  int             `json:"shards"`
	Hits    uint64          `json:"hits"`
	Misses  uint64          `json:"misses"`
	Bytes   int64           `json:"bytes"`
	Top     []RespEntryInfo `json:"top,omitempty"` // hottest entries, by hits
}

// Info reports occupancy, lifetime traffic, retained bytes, and the topN
// hottest fingerprints, aggregated across every shard. topN ≤ 0 omits
// the ranking. Shards are visited one at a time, so the view is
// per-shard consistent but not a global atomic snapshot — fine for the
// monitoring endpoint it feeds.
func (c *respCache) Info(topN int) RespCacheInfo {
	if c.max == 0 {
		return RespCacheInfo{}
	}
	info := RespCacheInfo{Max: c.max, Shards: len(c.shards)}
	var top []RespEntryInfo
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		info.Entries += sh.ll.Len()
		info.Hits += sh.hits
		info.Misses += sh.misses
		info.Bytes += sh.bytes
		if topN > 0 {
			for el := sh.ll.Front(); el != nil; el = el.Next() {
				e := el.Value.(*cacheEntry)
				fp := e.key
				if len(fp) > 12 {
					fp = fp[:12]
				}
				top = append(top, RespEntryInfo{Fingerprint: fp, Hits: e.hits, Bytes: len(e.body)})
			}
		}
		sh.mu.Unlock()
	}
	if topN > 0 {
		sort.Slice(top, func(i, j int) bool {
			if top[i].Hits != top[j].Hits {
				return top[i].Hits > top[j].Hits
			}
			return top[i].Fingerprint < top[j].Fingerprint
		})
		if len(top) > topN {
			top = top[:topN]
		}
		info.Top = top
	}
	return info
}
