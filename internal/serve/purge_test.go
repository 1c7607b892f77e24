package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestCachePurgeUnderLoad hammers the cache layers with concurrent
// evals (a mix of repeated hot specs, which the key memo admits and
// then answers, and a churning cold tail) while a purger fires
// DELETE /v1/cache in a loop. Every eval must
// still return 200 with a non-empty body — purge empties one layer at a
// time, so requests racing a purge land in a half-empty cache, never a
// broken one — and the endpoint must stay internally consistent
// afterwards. Run with -race in CI; the maps, the LRU list, and the
// lifetime counters all get exercised under real handler concurrency
// here.
func TestCachePurgeUnderLoad(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheSize: 64}, nil)

	const workers = 8
	const perWorker = 30
	errc := make(chan error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var spec string
				if i%3 == 0 { // cold tail: distinct spec, always a miss
					spec = specWithID(fmt.Sprintf("cold-%d-%d", w, i), 16+float64(i%7))
				} else { // hot set: shared specs, cache hits between purges
					spec = specWithID(fmt.Sprintf("hot-%d", i%4), 32)
				}
				resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(spec))
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK || len(body) == 0 {
					errc <- fmt.Errorf("worker %d: eval = %d %q", w, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	purgeDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(purgeDone)
		for i := 0; i < 40; i++ {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
			if err != nil {
				errc <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("purge %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The dust settled: the introspection view must be coherent — lifetime
	// counters survive purges and cover every request, occupancy is within
	// the configured bound.
	var info CacheInfoResponse
	getJSON(t, ts.URL+"/v1/cache", &info)
	if got := info.ResponseCache.Hits + info.ResponseCache.Misses; got != workers*perWorker {
		t.Errorf("response cache hits+misses = %d, want %d (lifetime counters must survive purges)",
			got, workers*perWorker)
	}
	if got := info.KeyMemo.Hits + info.KeyMemo.Misses; got != workers*perWorker {
		t.Errorf("key memo hits+misses = %d, want %d", got, workers*perWorker)
	}
	if info.KeyMemo.Bytes > info.KeyMemo.Cap {
		t.Errorf("key memo holds %d bytes, over its cap %d", info.KeyMemo.Bytes, info.KeyMemo.Cap)
	}
	if info.ResponseCache.Entries > 64 {
		t.Errorf("response cache entries = %d, want ≤ 64", info.ResponseCache.Entries)
	}
}
