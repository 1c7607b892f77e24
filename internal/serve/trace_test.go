package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, data)
	}
	return resp
}

// stageSet returns the names of a trace's top-level (Parent==0) spans.
func stageSet(ti TraceInfo) map[string]SpanInfo {
	out := make(map[string]SpanInfo)
	for _, sp := range ti.Spans {
		if sp.Parent == 0 {
			out[sp.Name] = sp
		}
	}
	return out
}

// fetchTrace pulls one trace by ID from GET /v1/trace.
func fetchTrace(t *testing.T, base, id string) TraceInfo {
	t.Helper()
	var list TraceList
	getJSON(t, base+"/v1/trace?id="+id, &list)
	if len(list.Traces) != 1 {
		t.Fatalf("GET /v1/trace?id=%s: got %d traces, want 1", id, len(list.Traces))
	}
	return list.Traces[0]
}

// TestTraceHeaderAndRetrieval: every response carries X-Bandwall-Trace,
// and the same ID is retrievable from GET /v1/trace with a span tree.
func TestTraceHeaderAndRetrieval(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, _ := postEval(t, ts.URL, stackedSpec)
	id := resp.Header.Get(TraceHeader)
	if id == "" {
		t.Fatalf("eval response missing %s header", TraceHeader)
	}
	ti := fetchTrace(t, ts.URL, id)
	if ti.Route != "eval" {
		t.Fatalf("trace route = %q, want eval", ti.Route)
	}
	if ti.Status != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", ti.Status)
	}
	if len(ti.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
}

// TestTraceHoldsQuerySpans: a query miss records its engine span in the
// request's /v1/trace tree and adds nothing to the registry's span log,
// which holds only the experiment spans /v1/experiments/{id}/run records.
func TestTraceHoldsQuerySpans(t *testing.T) {
	engine := map[string]string{"eval": "scenario.eval", "optimize": "optimize.search"}
	for _, k := range queryKinds {
		t.Run(k.name, func(t *testing.T) {
			_, ts, reg := newTestServer(t, Config{}, nil)
			resp, data := post(t, ts.URL+k.path, k.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			if got := resp.Header.Get(CacheHeader); got != "miss" {
				t.Fatalf("%s = %q, want miss", CacheHeader, got)
			}
			n := 0
			for _, sp := range fetchTrace(t, ts.URL, resp.Header.Get(TraceHeader)).Spans {
				if sp.Name == engine[k.name] {
					n++
				}
			}
			if n != 1 {
				t.Errorf("trace has %d %s spans, want 1", n, engine[k.name])
			}
			if spans := reg.Snapshot().Spans; len(spans) != 0 {
				t.Errorf("registry span log = %+v, want empty", spans)
			}
		})
	}
}

// TestTraceStagesColdEval: a cold query's trace records the whole
// pipeline — admit, parse, fingerprint, cache.lookup, singleflight with
// the solver nested under it, write — for every kind, and the top-level
// stage durations account for the bulk of the request wall-clock.
func TestTraceStagesColdEval(t *testing.T) {
	// Wide queries keep the solve on the critical path long enough that
	// the ±10% accounting check measures tiling, not fixed overhead.
	cold := []struct{ name, path, body, engine string }{
		{"eval", "/v1/eval", `{"id":"wide","axis":{"n2":[2,4,8,16,32,64,128,256,512,1024]},"cases":[
		  {"label":"BASE","value_key":"cores@base"},
		  {"label":"CC","stack":[{"name":"CC","params":{"ratio":2}}]},
		  {"label":"LC","stack":[{"name":"LC","params":{"ratio":2}}]},
		  {"label":"CC+LC","stack":[{"name":"CC","params":{"ratio":2}},{"name":"LC","params":{"ratio":2}}]}
		]}`, "scenario.eval"},
		{"optimize", "/v1/optimize", `{"id":"wide","n2":32,
		  "envelopes":[{"kind":"bandwidth","limit":1},{"kind":"thermal","limit":2.08}],
		  "catalog":[
		    {"name":"Fltr","params":{"unused":0.4},"cost":1},
		    {"name":"LC","params":{"ratio":2},"cost":1.5},
		    {"name":"CC","params":{"ratio":2},"cost":2},
		    {"name":"DRAM","params":{"density":8},"cost":4}
		  ]}`, "optimize.search"},
	}
	for _, c := range cold {
		t.Run(c.name, func(t *testing.T) {
			_, ts, _ := newTestServer(t, Config{}, nil)
			resp, data := post(t, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			ti := fetchTrace(t, ts.URL, resp.Header.Get(TraceHeader))

			stages := stageSet(ti)
			for _, want := range []string{StageAdmit, StageParse, StageFingerprint, StageCacheLookup, StageSingleflight, StageWrite} {
				if _, ok := stages[want]; !ok {
					t.Errorf("cold trace missing top-level stage %q (have %v)", want, ti.Spans)
				}
			}
			if ti.Attrs["cache"] != "miss" {
				t.Errorf("cold attrs[cache] = %q, want miss", ti.Attrs["cache"])
			}
			if ti.Attrs["shared"] != "false" {
				t.Errorf("cold attrs[shared] = %q, want false", ti.Attrs["shared"])
			}

			// The engine, render and at least one solver evaluation nest under
			// singleflight.
			sf := stages[StageSingleflight]
			byID := make(map[int]SpanInfo, len(ti.Spans))
			for _, sp := range ti.Spans {
				byID[sp.ID] = sp
			}
			rootOf := func(sp SpanInfo) SpanInfo {
				for sp.Parent != 0 {
					sp = byID[sp.Parent]
				}
				return sp
			}
			seen := map[string]bool{}
			for _, sp := range ti.Spans {
				switch sp.Name {
				case c.engine, StageRender:
					if rootOf(sp).ID != sf.ID {
						t.Errorf("%s span not nested under singleflight (parent chain root %d, want %d)", sp.Name, rootOf(sp).ID, sf.ID)
					}
				}
				seen[sp.Name] = true
			}
			for _, want := range []string{c.engine, StageRender, "scaling.solve"} {
				if !seen[want] {
					t.Errorf("cold trace has no %s span", want)
				}
			}

			// Wall-clock accounting: the top-level stages tile the handler, so
			// their sum must land within 10% of the request wall time.
			var sum float64
			for _, sp := range stages {
				sum += sp.WallUS
			}
			wall := ti.WallMS * 1e3
			if sum < 0.9*wall || sum > 1.1*wall {
				t.Errorf("stage sum %.1fµs vs request wall %.1fµs: outside ±10%%", sum, wall)
			}
		})
	}
}

// TestTraceStagesCacheHit: a repeat query of either kind is served from
// the response cache — its trace stops at cache.lookup and never enters
// singleflight. The first repeat parses (memo miss); the second takes
// its key from the key memo and keeps the same stages.
func TestTraceStagesCacheHit(t *testing.T) {
	for _, k := range queryKinds {
		t.Run(k.name, func(t *testing.T) {
			_, ts, _ := newTestServer(t, Config{}, nil)
			post(t, ts.URL+k.path, k.body) // warm
			for _, memo := range []string{"miss", "hit"} {
				resp, _ := post(t, ts.URL+k.path, k.body)
				if got := resp.Header.Get(CacheHeader); got != "hit" {
					t.Fatalf("%s = %q, want hit", CacheHeader, got)
				}
				ti := fetchTrace(t, ts.URL, resp.Header.Get(TraceHeader))
				stages := stageSet(ti)
				for _, want := range []string{StageAdmit, StageParse, StageFingerprint, StageCacheLookup, StageWrite} {
					if _, ok := stages[want]; !ok {
						t.Errorf("memo %s: cache-hit trace missing stage %q", memo, want)
					}
				}
				if _, ok := stages[StageSingleflight]; ok {
					t.Errorf("memo %s: cache-hit trace has a singleflight stage; the lookup should have short-circuited", memo)
				}
				if ti.Attrs["cache"] != "hit" || ti.Attrs["memo"] != memo {
					t.Errorf("attrs = %v, want cache=hit memo=%s", ti.Attrs, memo)
				}
			}
		})
	}
}

// TestTraceSingleflightFollower: a follower collapsed onto a leader's
// solve gets its own trace (spent inside singleflight) and the shared
// attribute, while only the leader carries the engine spans.
func TestTraceSingleflightFollower(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	gate := func(ctx context.Context, _ string) {
		started <- struct{}{}
		<-release
	}
	s, ts, _ := newTestServer(t, Config{CacheSize: -1}, gate)

	type evalRes struct {
		trace  string
		shared string
	}
	results := make(chan evalRes, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(stackedSpec))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- evalRes{trace: resp.Header.Get(TraceHeader), shared: resp.Header.Get("X-Bandwall-Cache")}
		}()
	}
	<-started // leader is inside the gate
	// Admission alone (Inflight() == 2) can race the follower's arrival at
	// the flight; wait until it is blocked on the leader's call.
	waitFor(t, "follower to join the flight", func() bool { return waiters(s) == 1 })
	close(release)
	wg.Wait()
	close(results)

	var leader, follower evalRes
	for r := range results {
		if r.shared == "shared" {
			follower = r
		} else {
			leader = r
		}
	}
	if follower.trace == "" || leader.trace == "" {
		t.Fatalf("expected one leader and one follower, got leader=%+v follower=%+v", leader, follower)
	}
	lt := fetchTrace(t, ts.URL, leader.trace)
	ft := fetchTrace(t, ts.URL, follower.trace)
	if ft.Attrs["shared"] != "true" {
		t.Errorf("follower attrs[shared] = %q, want true", ft.Attrs["shared"])
	}
	if lt.Attrs["shared"] != "false" {
		t.Errorf("leader attrs[shared] = %q, want false", lt.Attrs["shared"])
	}
	countEngine := func(ti TraceInfo) int {
		n := 0
		for _, sp := range ti.Spans {
			if sp.Name == "scenario.eval" {
				n++
			}
		}
		return n
	}
	if n := countEngine(lt); n != 1 {
		t.Errorf("leader trace has %d scenario.eval spans, want 1", n)
	}
	if n := countEngine(ft); n != 0 {
		t.Errorf("follower trace has %d scenario.eval spans, want 0 (it waited)", n)
	}
	if _, ok := stageSet(ft)[StageSingleflight]; !ok {
		t.Error("follower trace missing the singleflight stage it waited in")
	}
}

// TestTraceRingBound: the ring never retains more than its configured
// size, under concurrent traffic (run with -race).
func TestTraceRingBound(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{TraceBuffer: 8}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = http.Post(ts.URL+"/v1/eval", "application/json",
					strings.NewReader(specWithID(fmt.Sprintf("s-%d-%d", w, i), 8)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if n := len(s.ring.Snapshot()); n > 8 {
					t.Errorf("ring holds %d traces, bound is 8", n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(s.ring.Snapshot()); n != 8 {
		t.Fatalf("ring holds %d traces after 100 evals, want full at 8", n)
	}
	var list TraceList
	getJSON(t, ts.URL+"/v1/trace?limit=100", &list)
	if list.Count != 8 || len(list.Traces) != 8 {
		t.Fatalf("GET /v1/trace returned count=%d len=%d, want 8", list.Count, len(list.Traces))
	}
}

// TestTraceFilters: slow, route, and limit filters behave.
func TestTraceFilters(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	postEval(t, ts.URL, stackedSpec)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var list TraceList
	getJSON(t, ts.URL+"/v1/trace?route=eval", &list)
	if list.Count != 1 || list.Traces[0].Route != "eval" {
		t.Fatalf("route filter: count=%d", list.Count)
	}
	// slow=1h matches nothing; slow=0 matches everything recorded.
	getJSON(t, ts.URL+"/v1/trace?slow=1h", &list)
	if list.Count != 0 {
		t.Fatalf("slow=1h matched %d traces", list.Count)
	}
	getJSON(t, ts.URL+"/v1/trace?slow=0", &list)
	if list.Count == 0 {
		t.Fatal("slow=0 matched nothing")
	}
	getJSON(t, ts.URL+"/v1/trace?limit=1", &list)
	if len(list.Traces) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(list.Traces))
	}
	r2, err := http.Get(ts.URL + "/v1/trace?slow=banana")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("slow=banana: status %d, want 400", r2.StatusCode)
	}
}

// TestTraceErrorBody: error responses name the responsible trace.
func TestTraceErrorBody(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, data := postEval(t, ts.URL, `{"id":"bad","axis":{"n2":[32]},"cases":[{"alpha":-3}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400\n%s", resp.StatusCode, data)
	}
	he := decodeError(t, data)
	if he.Trace == "" {
		t.Fatal("error body has no trace ID")
	}
	if he.Trace != resp.Header.Get(TraceHeader) {
		t.Fatalf("error trace %q != header trace %q", he.Trace, resp.Header.Get(TraceHeader))
	}
}

// TestStageHistogramsAndExemplars: evals feed per-route stage histograms
// whose exemplars carry retrievable trace IDs.
func TestStageHistogramsAndExemplars(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{}, nil)
	resp, _ := postEval(t, ts.URL, stackedSpec)
	id := resp.Header.Get(TraceHeader)

	snap := reg.Snapshot()
	byName := make(map[string]obs.HistogramValue)
	for _, h := range snap.Histograms {
		byName[h.Name] = h
	}
	total, ok := byName[stageHistName("serve", "eval", StageTotal)]
	if !ok || total.Count == 0 {
		t.Fatalf("stage histogram %q empty", stageHistName("serve", "eval", StageTotal))
	}
	var exemplar string
	for _, b := range total.Buckets {
		if b.Exemplar != nil {
			exemplar = b.Exemplar.Label
		}
	}
	if exemplar != id {
		t.Fatalf("total-stage exemplar = %q, want trace %q", exemplar, id)
	}

	// The scraper round-trips the same data over HTTP.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	scraped, err := ScrapeMetrics(ctx, nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	stages := scraped.StageHistograms("eval")
	if stages[StageTotal].Count == 0 {
		t.Fatal("scraped total-stage histogram empty")
	}
	if got := stages[StageTotal].SlowestExemplar(); got == "" {
		t.Fatal("scraped total-stage histogram has no exemplar")
	}
}

// TestCacheEndpoint: GET /v1/cache reports every layer's occupancy and
// hits; DELETE purges them.
func TestCacheEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	postEval(t, ts.URL, stackedSpec)
	postEval(t, ts.URL, stackedSpec) // response-cache hit: admits the body to the key memo
	postEval(t, ts.URL, specWithID("other", 16))

	var info CacheInfoResponse
	getJSON(t, ts.URL+"/v1/cache", &info)
	wantMemo := KeyMemoInfo{Entries: 1, Bytes: len(stackedSpec) + 64, Cap: keyMemoMaxBytes, Misses: 3}
	if info.KeyMemo != wantMemo {
		t.Fatalf("key memo = %+v, want %+v", info.KeyMemo, wantMemo)
	}
	if info.ResponseCache.Entries != 2 {
		t.Fatalf("response cache entries = %d, want 2", info.ResponseCache.Entries)
	}
	if info.ResponseCache.Hits != 1 || info.ResponseCache.Misses != 2 {
		t.Fatalf("response cache hits/misses = %d/%d, want 1/2", info.ResponseCache.Hits, info.ResponseCache.Misses)
	}
	if len(info.ResponseCache.Top) == 0 || info.ResponseCache.Top[0].Hits != 1 {
		t.Fatalf("top ranking = %+v, want the stacked spec on top with 1 hit", info.ResponseCache.Top)
	}
	if info.SolverCache.Entries == 0 || info.SolverCache.Misses == 0 {
		t.Fatalf("solver cache info = %+v, want nonzero entries and misses", info.SolverCache)
	}
	if len(info.SolverCache.Top) == 0 {
		t.Fatal("solver cache top ranking empty")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var purged CachePurgeResponse
	if err := json.NewDecoder(resp.Body).Decode(&purged); err != nil {
		t.Fatal(err)
	}
	if purged.KeyMemoEntriesPurged != 1 || purged.ResponseEntriesPurged != 2 || purged.SolverEntriesPurged == 0 {
		t.Fatalf("purge = %+v, want 1 memo entry, 2 response entries and nonzero solver entries", purged)
	}
	getJSON(t, ts.URL+"/v1/cache", &info)
	if info.KeyMemo.Entries != 0 || info.KeyMemo.Bytes != 0 || info.ResponseCache.Entries != 0 || info.SolverCache.Entries != 0 {
		t.Fatalf("after purge: %+v, want empty caches", info)
	}
}

// TestRuntimeGauges: construction samples the runtime gauges, so
// /metrics reports process health before any traffic.
func TestRuntimeGauges(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snap, err := ScrapeMetrics(ctx, nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gauge(MetricGoroutines) <= 0 {
		t.Errorf("goroutine gauge = %g, want > 0", snap.Gauge(MetricGoroutines))
	}
	if snap.Gauge(MetricHeapBytes) <= 0 {
		t.Errorf("heap gauge = %g, want > 0", snap.Gauge(MetricHeapBytes))
	}
}
