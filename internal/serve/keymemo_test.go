package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// respell re-encodes a JSON body with its object keys in sorted order,
// indented, and wrapped in whitespace: the same query in other bytes.
func respell(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber() // keep every number's spelling
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(v, "\t", "   ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(append([]byte("\n "), out...), "\r\n"...)
	if bytes.Equal(out, body) {
		t.Fatal("respelled body is byte-identical to the original")
	}
	return out
}

// TestKeyMemoMatchesFreshParse: for every shipped example spec and a
// respelled copy, the key the memo returns is the key a fresh parse
// gives (parse, then fingerprint), and both spellings share one
// response-cache entry and one answer. Each spelling is admitted on its
// first response-cache hit and served from the memo after that.
func TestKeyMemoMatchesFreshParse(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs (%v)", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			k := queryKinds[0]
			if strings.HasPrefix(filepath.Base(p), "optimize-") {
				k = queryKinds[1]
			}
			body, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			alt := respell(t, body)
			want := k.mustKey(t, string(body))
			if got := k.mustKey(t, string(alt)); got != want {
				t.Fatalf("respelled key %s, want %s", got, want)
			}
			s, ts, _ := newTestServer(t, Config{}, nil)
			var first []byte
			for i, b := range [][]byte{body, body, alt, alt, body, alt} {
				resp, data := post(t, ts.URL+k.path, string(b))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
				}
				wantCache, wantMemo := "hit", "miss"
				if i == 0 {
					wantCache, first = "miss", data
				}
				if i >= 3 {
					wantMemo = "hit"
				}
				if got := resp.Header.Get(CacheHeader); got != wantCache {
					t.Errorf("request %d: %s = %q, want %q", i, CacheHeader, got, wantCache)
				}
				if got := fetchTrace(t, ts.URL, resp.Header.Get(TraceHeader)).Attrs["memo"]; got != wantMemo {
					t.Errorf("request %d: trace memo = %q, want %q", i, got, wantMemo)
				}
				if !bytes.Equal(data, first) {
					t.Errorf("request %d: answer differs from the first", i)
				}
			}
			for _, b := range [][]byte{body, alt} {
				if got, ok := s.memo.Get(k.name, b); !ok || got != want {
					t.Errorf("memo key = %q, %t; want %s", got, ok, want)
				}
			}
			info := s.CacheInfo(0)
			if info.KeyMemo.Entries != 2 || info.ResponseCache.Entries != 1 {
				t.Errorf("memo entries %d, response entries %d; want 2 spellings on 1 answer",
					info.KeyMemo.Entries, info.ResponseCache.Entries)
			}
		})
	}
}

// syncBuffer is a bytes.Buffer safe for a server goroutine to write
// while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestKeyMemoAdmission pins the admission rule for every query kind: a
// body seen once is not retained, its first response-cache hit admits
// it, and the request after that is a memo hit in the trace and the
// access log. A domain-invalid body is never retained.
func TestKeyMemoAdmission(t *testing.T) {
	invalid := map[string]string{
		"eval":     `{"id":"dom","axis":{"n2":[16]},"cases":[{"label":"X","value_key":"v","stack":[{"name":"NOPE"}]}]}`,
		"optimize": `{"id":"bad","n2":-1}`,
	}
	for _, k := range queryKinds {
		t.Run(k.name, func(t *testing.T) {
			var log syncBuffer
			s, ts, _ := newTestServer(t, Config{AccessLog: &log}, nil)
			body := k.withID("admit")
			for i, want := range []struct {
				cache, memo string
				entries     int
			}{{"miss", "miss", 0}, {"hit", "miss", 1}, {"hit", "hit", 1}} {
				resp, data := post(t, ts.URL+k.path, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
				}
				if got := resp.Header.Get(CacheHeader); got != want.cache {
					t.Errorf("request %d: %s = %q, want %q", i, CacheHeader, got, want.cache)
				}
				if got := fetchTrace(t, ts.URL, resp.Header.Get(TraceHeader)).Attrs["memo"]; got != want.memo {
					t.Errorf("request %d: trace memo = %q, want %q", i, got, want.memo)
				}
				if got := s.memo.Info().Entries; got != want.entries {
					t.Errorf("after request %d: memo entries = %d, want %d", i, got, want.entries)
				}
			}
			if !strings.Contains(log.String(), "memo=hit cache=hit") {
				t.Errorf("access log has no memo=hit line:\n%s", log.String())
			}
			for i := 0; i < 3; i++ {
				if resp, data := post(t, ts.URL+k.path, invalid[k.name]); resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("invalid body: status %d, want 400: %s", resp.StatusCode, data)
				}
			}
			if got := s.memo.Info(); got.Entries != 1 || got.Hits != 1 || got.Misses != 5 {
				t.Errorf("memo = %+v, want 1 entry, 1 hit, 5 misses (invalid bodies never retained)", got)
			}
		})
	}
}

// TestKeyMemoHitThenCacheMiss: a body whose key comes from the memo but
// whose answer has left the response cache is parsed and solved again,
// and answers exactly as a body the memo never saw. Two alternating
// bodies through a one-entry response cache evict each other; the
// reference server gets every request respelled with a fresh run of
// trailing spaces, so its memo never hits.
func TestKeyMemoHitThenCacheMiss(t *testing.T) {
	a, b := specWithID("alt-a", 32), specWithID("alt-b", 16)
	seq := []string{a, a, b, b, a, b, a, b}
	s, ts, _ := newTestServer(t, Config{CacheSize: 1}, nil)
	ref, refTS, _ := newTestServer(t, Config{CacheSize: 1}, nil)
	for i, body := range seq {
		resp, data := postEval(t, ts.URL, body)
		refResp, refData := postEval(t, refTS.URL, body+strings.Repeat(" ", i))
		if resp.StatusCode != http.StatusOK || refResp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, reference %d", i, resp.StatusCode, refResp.StatusCode)
		}
		got, want := resp.Header.Get(CacheHeader), refResp.Header.Get(CacheHeader)
		if got != want {
			t.Errorf("request %d: %s = %q, reference %q", i, CacheHeader, got, want)
		}
		if !bytes.Equal(data, refData) {
			t.Errorf("request %d: answer differs from the reference:\n%s\n%s", i, data, refData)
		}
	}
	if s.Solves() != ref.Solves() || s.Solves() != 6 {
		t.Errorf("solves = %d, reference %d; want 6 (every response-cache miss solves)", s.Solves(), ref.Solves())
	}
	if got := s.memo.Info(); got.Hits != 4 {
		t.Errorf("memo = %+v, want the last 4 requests served from it", got)
	}
	if got := ref.memo.Info(); got.Hits != 0 {
		t.Errorf("reference memo = %+v, want no hits", got)
	}
}

// TestKeyMemoBytesCap: retained bytes are counted as body plus key,
// never exceed the cap (admitting past it drops the whole map), and a
// body larger than the cap is never retained. Entries are per kind.
func TestKeyMemoBytesCap(t *testing.T) {
	m := NewKeyMemo()
	key := strings.Repeat("k", 64)
	const n = 1 << 20
	for i := 0; i < 10; i++ {
		body := bytes.Repeat([]byte{byte('a' + i)}, n)
		m.Put("eval", body, key)
		info := m.Info()
		if info.Bytes > keyMemoMaxBytes || info.Cap != keyMemoMaxBytes {
			t.Fatalf("put %d: %+v, want bytes ≤ cap %d", i, info, keyMemoMaxBytes)
		}
		if info.Bytes != info.Entries*(n+len(key)) {
			t.Fatalf("put %d: %d bytes for %d entries, want body plus key each", i, info.Bytes, info.Entries)
		}
		if want := i%3 + 1; info.Entries != want {
			t.Fatalf("put %d: %d entries, want %d (three fit; the fourth drops the map)", i, info.Entries, want)
		}
		if got, ok := m.Get("eval", body); !ok || got != key {
			t.Fatalf("put %d: just-admitted body misses", i)
		}
		if _, ok := m.Get("optimize", body); ok {
			t.Fatalf("put %d: body admitted as eval hits as optimize", i)
		}
	}
	before := m.Info().Entries
	big := make([]byte, keyMemoMaxBytes-len(key)+1)
	m.Put("eval", big, key)
	if _, ok := m.Get("eval", big); ok || m.Info().Entries != before {
		t.Errorf("a body over the cap was retained: %+v", m.Info())
	}
	if purged := m.Purge(); purged != before {
		t.Errorf("purge = %d, want %d", purged, before)
	}
	if info := m.Info(); info.Entries != 0 || info.Bytes != 0 {
		t.Errorf("after purge: %+v, want empty", info)
	}
}
