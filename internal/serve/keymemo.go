package serve

import "sync"

// keyMemoMaxBytes bounds what one KeyMemo retains, counted as body plus
// key bytes over every entry. Admitting a body past the bound drops the
// whole map first; a body larger than the bound is never kept. Shipped
// example specs are under 2 KiB, so the bound holds about two thousand.
const keyMemoMaxBytes = 4 << 20

// KeyMemo maps exact request-body bytes to the body's key (fingerprint),
// so a repeated body skips parse and fingerprint. Bodies are compared
// byte for byte, never by a hash. A key is a pure function of the body
// and the static technique catalog, so an entry cannot go stale.
//
// The caller decides admission: both tiers admit a body only once its
// answer has been served from a response cache, so a body seen once is
// never retained. Entries are per query kind; a body memoized under one
// kind misses under another and is parsed there, which is correct, only
// slower (no body is valid under two kinds' parsers).
type KeyMemo struct {
	mu     sync.Mutex
	m      map[string]memoEntry // exact body bytes → entry
	bytes  int
	hits   uint64
	misses uint64
}

type memoEntry struct{ kind, key string }

// NewKeyMemo returns an empty memo.
func NewKeyMemo() *KeyMemo { return &KeyMemo{m: make(map[string]memoEntry)} }

// Get returns the key memoized for body under kind. The lookup does not
// allocate: indexing by string(body) reads the bytes in place.
func (m *KeyMemo) Get(kind string, body []byte) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[string(body)]
	if !ok || e.kind != kind {
		m.misses++
		return "", false
	}
	m.hits++
	return e.key, true
}

// Put memoizes body → key under kind. It copies body.
func (m *KeyMemo) Put(kind string, body []byte, key string) {
	size := len(body) + len(key)
	if size > keyMemoMaxBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[string(body)]; ok {
		return
	}
	if m.bytes+size > keyMemoMaxBytes {
		m.m = make(map[string]memoEntry)
		m.bytes = 0
	}
	m.m[string(body)] = memoEntry{kind: kind, key: key}
	m.bytes += size
}

// Purge drops every entry and returns how many were held. Lifetime
// hit/miss counters are preserved.
func (m *KeyMemo) Purge() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.m)
	m.m = make(map[string]memoEntry)
	m.bytes = 0
	return n
}

// KeyMemoInfo summarizes a KeyMemo for GET /v1/cache.
type KeyMemoInfo struct {
	Entries int    `json:"entries"`
	Bytes   int    `json:"bytes"` // retained body plus key bytes
	Cap     int    `json:"cap"`   // the bound on Bytes
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Info reports occupancy, retained bytes and lifetime traffic.
func (m *KeyMemo) Info() KeyMemoInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return KeyMemoInfo{Entries: len(m.m), Bytes: m.bytes, Cap: keyMemoMaxBytes, Hits: m.hits, Misses: m.misses}
}
