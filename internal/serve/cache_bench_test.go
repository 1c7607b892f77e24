package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// BenchmarkRespCacheContention measures the response LRU under parallel
// mixed Get/Put load on its one mutex. Unlike the read-mostly solver
// cache, every LRU hit is a write (MoveToFront), so the lock serializes
// even a 100%-hit workload. Run with -cpu 1,2,4,8 to sweep the
// contention curve.
func BenchmarkRespCacheContention(b *testing.B) {
	body := make([]byte, 512)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	c := NewRespCache(1024)
	for _, k := range keys {
		c.Put(k, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			var k string
			if i%10 < 9 { // 90% hot, 10% cold tail
				k = keys[i%8]
			} else {
				k = keys[i%len(keys)]
			}
			if _, ok := c.Get(k); !ok {
				c.Put(k, body)
			}
			i++
		}
	})
}

// BenchmarkQueryHitPath times one warmed request of each query kind
// through the whole in-process handler stack — instrument, admit, read
// (body, parse, fingerprint), response-cache hit, write — on a
// recorder, without the network: the serve tier's share of a hot
// request.
func BenchmarkQueryHitPath(b *testing.B) {
	for _, q := range []struct{ name, path, body string }{
		{"eval", "/v1/eval", stackedSpec},
		{"optimize", "/v1/optimize", optimizeSpecBody},
	} {
		b.Run(q.name, func(b *testing.B) {
			prev := obs.Default()
			reg := obs.NewRegistry()
			obs.SetDefault(reg)
			defer obs.SetDefault(prev)
			h := NewServer(Config{}).Handler()
			do := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.path, strings.NewReader(q.body)))
				return rec
			}
			if rec := do(); rec.Code != http.StatusOK {
				b.Fatalf("warm-up status %d: %s", rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := do(); rec.Header().Get(CacheHeader) != "hit" {
					b.Fatalf("request %d: %s = %q, want hit", i, CacheHeader, rec.Header().Get(CacheHeader))
				}
			}
		})
	}
}
