package serve

import (
	"container/list"
	"sort"
	"sync"
)

// RespCache is a bounded LRU of rendered responses keyed by spec
// fingerprint, behind one mutex. A server keeps its answers in one: the
// solver cache underneath already memoizes the math, and this layer
// additionally skips spec parsing, engine dispatch, and JSON rendering
// for repeated queries — the common case for a dashboard polling a fixed
// what-if set. The fleet gateway keeps its stale reserve of
// last-known-good answers in another. It tracks per-entry hit counts,
// lifetime hit/miss totals, and retained bytes for GET /v1/cache.
type RespCache struct {
	mu    sync.Mutex
	max   int        // capacity in entries; 0 = disabled
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

// NewRespCache builds a cache holding up to size entries; size 0 means
// DefaultCacheSize, negative disables caching (Get always misses).
func NewRespCache(size int) *RespCache {
	if size == 0 {
		size = DefaultCacheSize
	}
	if size < 0 {
		return &RespCache{}
	}
	return &RespCache{max: size, ll: list.New(), m: make(map[string]*list.Element, size)}
}

// Get returns the cached body for key, if any, marking it most recently
// used.
func (c *RespCache) Get(key string) ([]byte, bool) {
	if c.max == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	e.hits++
	return e.body, true
}

// Put stores body under key, evicting the least-recently-used entry when
// the cache is full. body is retained; callers must not mutate it
// afterwards.
func (c *RespCache) Put(key string, body []byte) {
	if c.max == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		c.bytes -= int64(len(e.body))
		delete(c.m, e.key)
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += int64(len(body))
}

// Purge drops every cached response and returns how many were held.
// Lifetime hit/miss counters are preserved.
func (c *RespCache) Purge() int {
	if c.max == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.m = make(map[string]*list.Element, c.max)
	c.bytes = 0
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
	Hits    uint64          `json:"hits"`
	Misses  uint64          `json:"misses"`
	Bytes   int64           `json:"bytes"`
	Top     []RespEntryInfo `json:"top,omitempty"` // hottest entries, by hits
}

// Info reports occupancy, lifetime traffic, retained bytes, and the topN
// hottest fingerprints. topN ≤ 0 omits the ranking.
func (c *RespCache) Info(topN int) RespCacheInfo {
	if c.max == 0 {
		return RespCacheInfo{}
	}
	c.mu.Lock()
	info := RespCacheInfo{Entries: c.ll.Len(), Max: c.max, Hits: c.hits, Misses: c.misses, Bytes: c.bytes}
	var top []RespEntryInfo
	if topN > 0 {
		for el := c.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			fp := e.key
			if len(fp) > 12 {
				fp = fp[:12]
			}
			top = append(top, RespEntryInfo{Fingerprint: fp, Hits: e.hits, Bytes: len(e.body)})
		}
	}
	c.mu.Unlock()
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
