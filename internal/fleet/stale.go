package fleet

import (
	"container/list"
	"sync"
)

// staleEntry is one cached successful /v1/eval response, kept beyond
// freshness purely as a degradation reserve: when the whole ring is
// down, a stale answer with an explicit X-Bandwall-Degraded marker
// beats a 503 for read-mostly design-space exploration traffic.
type staleEntry struct {
	key         string
	body        []byte
	contentType string
}

// staleCache is a bounded LRU of last-known-good eval responses keyed
// by spec fingerprint. It is deliberately tiny and lock-per-op: it sits
// on the success path only to Put, and on the total-failure path only
// to Get, so contention is not a concern the way it is for the
// replicas' sharded response caches.
type staleCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // front = most recent
	items map[string]*list.Element // key → element (Value: *staleEntry)
}

func newStaleCache(max int) *staleCache {
	if max <= 0 {
		return nil // disabled: a nil *staleCache is a no-op
	}
	return &staleCache{max: max, ll: list.New(), items: make(map[string]*list.Element, max)}
}

// Put stores (or refreshes) the response for key, evicting the least
// recently used entry past capacity.
func (c *staleCache) Put(key string, body []byte, contentType string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*staleEntry)
		ent.body, ent.contentType = body, contentType
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&staleEntry{key: key, body: body, contentType: contentType})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*staleEntry).key)
	}
}

// Get returns the stale response for key, if any, marking it recently
// used.
func (c *staleCache) Get(key string) (*staleEntry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*staleEntry), true
}

// Purge drops every cached response and returns how many were held. An
// operator invalidating the fleet's caches must not leave last-known-good
// bodies behind: a post-purge total-ring failure would serve results the
// operator just declared invalid.
func (c *staleCache) Purge() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.max)
	return n
}
