package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LoadgenConfig drives one closed-loop load-generation run: Conns
// workers each issue requests back-to-back (a new request the moment
// the previous response finishes) for Duration.
type LoadgenConfig struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Path is the target endpoint; default "/v1/eval".
	Path string
	// Body is POSTed on each request (a scenario spec). Empty means GET.
	Body []byte
	// Conns is the number of concurrent closed-loop workers; ≤0 means 32.
	Conns int
	// Duration is how long to generate load; ≤0 means 5s.
	Duration time.Duration
	// WarmupRequests are issued (and discarded from the stats) before
	// timing starts, so connection setup and first-solve costs don't
	// pollute the latency tail. ≤0 means Conns requests.
	WarmupRequests int
	// Chaos enables chaos-test mode: the POSTed spec is expanded into
	// ChaosVariants bodies with distinct ids (and therefore distinct
	// fingerprints), which the workers rotate through — so a fleet
	// gateway spreads the load across its whole replica ring instead of
	// hammering one fingerprint's owner. Requires a Body.
	Chaos bool
	// ChaosVariants is the chaos-mode spec pool size; ≤0 means 8.
	ChaosVariants int
}

// LoadgenResult summarizes one run.
type LoadgenResult struct {
	Requests uint64
	Errors   uint64 // transport errors + non-2xx responses
	Statuses map[int]uint64
	// Classes splits Errors by failure class — connect (transport), 429,
	// 503, 504, 5xx (other), 4xx (other) — so a chaos run can tell shed
	// load (429/503, the server protecting itself) from real failures.
	Classes map[string]uint64

	ElapsedSeconds float64
	Throughput     float64 // requests per second
	P50ms          float64
	P90ms          float64
	P99ms          float64
	MaxMs          float64

	// Stages is the server-side per-stage latency breakdown over the
	// measured window (the delta of two /metrics scrapes bracketing the
	// run), keyed by stage name. Absent when the target doesn't expose
	// the bandwall /metrics NDJSON.
	Stages map[string]StageStats
}

// Error-class keys in LoadgenResult.Classes.
const (
	ClassConnect = "connect" // transport-level failure (dial, reset, EOF)
	Class429     = "429"     // admission shed (Retry-After honored)
	Class503     = "503"     // unavailable/draining (Retry-After honored)
	Class504     = "504"     // deadline exhausted
	Class5xx     = "5xx"     // other server errors
	Class4xx     = "4xx"     // other client errors
)

// classifyStatus maps a non-2xx response onto its error-class key.
func classifyStatus(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return Class429
	case code == http.StatusServiceUnavailable:
		return Class503
	case code == http.StatusGatewayTimeout:
		return Class504
	case code >= 500:
		return Class5xx
	default:
		return Class4xx
	}
}

// Shed returns the shed-load error count: 429/503 responses, where the
// server (or gateway) deliberately refused work and named a Retry-After.
func (r LoadgenResult) Shed() uint64 {
	return r.Classes[Class429] + r.Classes[Class503]
}

// Visible returns the client-visible failure count: every error that is
// not shed load — connect failures, 5xx, 504, stray 4xx. This is the
// number a chaos run pins to zero: failover and retries must absorb a
// dying replica completely.
func (r LoadgenResult) Visible() uint64 {
	return r.Errors - r.Shed()
}

// StageStats summarizes one pipeline stage's server-side latency over
// the measured window (microseconds, estimated from bucket counts).
type StageStats struct {
	Count  uint64
	MeanUS float64
	P50US  float64
	P99US  float64
}

// String renders the result in the CLI's aligned key:value style.
func (r LoadgenResult) String() string {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "requests      : %d (%d errors)\n", r.Requests, r.Errors)
	if r.Errors > 0 {
		fmt.Fprintf(&sb, "error classes : connect=%d 429=%d 503=%d 504=%d 5xx=%d 4xx=%d (visible %d, shed %d)\n",
			r.Classes[ClassConnect], r.Classes[Class429], r.Classes[Class503],
			r.Classes[Class504], r.Classes[Class5xx], r.Classes[Class4xx],
			r.Visible(), r.Shed())
	}
	fmt.Fprintf(&sb, "elapsed       : %.2fs\n", r.ElapsedSeconds)
	fmt.Fprintf(&sb, "throughput    : %.0f req/s\n", r.Throughput)
	fmt.Fprintf(&sb, "latency p50   : %.3f ms\n", r.P50ms)
	fmt.Fprintf(&sb, "latency p90   : %.3f ms\n", r.P90ms)
	fmt.Fprintf(&sb, "latency p99   : %.3f ms\n", r.P99ms)
	fmt.Fprintf(&sb, "latency max   : %.3f ms\n", r.MaxMs)
	for _, code := range sortedStatuses(r.Statuses) {
		fmt.Fprintf(&sb, "status %d    : %d\n", code, r.Statuses[code])
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(&sb, "server stages over the measured window (µs):\n")
		names := make([]string, 0, len(r.Stages))
		for name := range r.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := r.Stages[name]
			fmt.Fprintf(&sb, "  %-14s n=%-8d mean=%-10.1f p50=%-10.1f p99=%.1f\n",
				name, st.Count, st.MeanUS, st.P50US, st.P99US)
		}
	}
	return sb.String()
}

func sortedStatuses(m map[int]uint64) []int {
	out := make([]int, 0, len(m))
	for code := range m {
		out = append(out, code)
	}
	sort.Ints(out)
	return out
}

// Loadgen runs the closed-loop client until cfg.Duration elapses or ctx
// is canceled, whichever comes first. Latencies are kept as exact
// samples for the percentile report.
func Loadgen(ctx context.Context, cfg LoadgenConfig) (LoadgenResult, error) {
	conns := cfg.Conns
	if conns <= 0 {
		conns = 32
	}
	dur := cfg.Duration
	if dur <= 0 {
		dur = 5 * time.Second
	}
	path := cfg.Path
	if path == "" {
		path = "/v1/eval"
	}
	target := cfg.URL + path
	transport := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	// The request-body pool: one body (the configured spec), or in chaos
	// mode a rotation of ChaosVariants distinct-fingerprint derivatives.
	bodies := [][]byte{cfg.Body}
	if cfg.Chaos {
		if len(cfg.Body) == 0 {
			return LoadgenResult{}, fmt.Errorf("loadgen: -chaos needs a -spec body to derive variants from")
		}
		var err error
		if bodies, err = chaosVariants(cfg.Body, cfg.ChaosVariants); err != nil {
			return LoadgenResult{}, err
		}
	}

	// issue fires one request and reports the status plus any Retry-After
	// hint the server attached (0 when absent or unparseable).
	issue := func(body []byte) (int, time.Duration, error) {
		var req *http.Request
		var err error
		if len(body) == 0 {
			req, err = http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		} else {
			req, err = http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
			if err == nil {
				req.Header.Set("Content-Type", "application/json")
			}
		}
		if err != nil {
			return 0, 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		var retryAfter time.Duration
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return resp.StatusCode, retryAfter, nil
	}

	// Warmup: establish connections and populate the server's caches so
	// the measured window reflects steady-state serving.
	warm := cfg.WarmupRequests
	if warm <= 0 {
		warm = conns
	}
	for i := 0; i < warm; i++ {
		if _, _, err := issue(bodies[i%len(bodies)]); err != nil {
			return LoadgenResult{}, fmt.Errorf("loadgen warmup: %w", err)
		}
	}

	// Bracket the measured window with /metrics scrapes so the result can
	// carry the server-side stage breakdown for exactly this run. A
	// failed scrape (non-bandwall target) just omits the breakdown.
	before, scrapeErr := ScrapeMetrics(ctx, client, cfg.URL)

	type workerStats struct {
		latencies []time.Duration
		statuses  map[int]uint64
		classes   map[string]uint64
		errors    uint64
	}
	stats := make([]workerStats, conns)
	runCtx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()

	// backoffFor caps a server's Retry-After hint so a closed-loop worker
	// never sleeps past the measurement window's useful resolution.
	const maxRetryAfter = 2 * time.Second

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func(w int, ws *workerStats) {
			defer wg.Done()
			ws.statuses = make(map[int]uint64)
			ws.classes = make(map[string]uint64)
			for iter := 0; runCtx.Err() == nil; iter++ {
				t0 := time.Now()
				code, retryAfter, err := issue(bodies[(w+iter)%len(bodies)])
				lat := time.Since(t0)
				if runCtx.Err() != nil && (err != nil || code == 0) {
					return // the deadline canceled this request mid-flight
				}
				if err != nil {
					ws.errors++
					ws.classes[ClassConnect]++
					continue
				}
				ws.statuses[code]++
				if code < 200 || code > 299 {
					ws.errors++
					ws.classes[classifyStatus(code)]++
				}
				ws.latencies = append(ws.latencies, lat)
				// Honor Retry-After on shed responses instead of hammering a
				// saturated or draining server: the shed numbers then measure
				// admission policy, not one client's retry storm.
				if (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) && retryAfter > 0 {
					if retryAfter > maxRetryAfter {
						retryAfter = maxRetryAfter
					}
					t := time.NewTimer(retryAfter)
					select {
					case <-runCtx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
			}
		}(w, &stats[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadgenResult{Statuses: make(map[int]uint64), Classes: make(map[string]uint64)}
	var all []time.Duration
	for _, ws := range stats {
		res.Errors += ws.errors
		for code, n := range ws.statuses {
			res.Statuses[code] += n
		}
		for class, n := range ws.classes {
			res.Classes[class] += n
		}
		all = append(all, ws.latencies...)
	}
	res.Requests = uint64(len(all))
	res.ElapsedSeconds = elapsed.Seconds()
	if elapsed > 0 {
		res.Throughput = float64(res.Requests) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50ms = ms(percentile(all, 0.50))
		res.P90ms = ms(percentile(all, 0.90))
		res.P99ms = ms(percentile(all, 0.99))
		res.MaxMs = ms(all[len(all)-1])
	}
	if scrapeErr == nil {
		if after, err := ScrapeMetrics(ctx, client, cfg.URL); err == nil {
			res.Stages = stageBreakdown(before, after, routeOf(path))
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// routeOf maps a request path onto the serve tier's route name for the
// stage-histogram lookup ("/v1/eval" → "eval").
func routeOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// stageBreakdown differences two /metrics scrapes into per-stage window
// statistics for one route.
func stageBreakdown(before, after MetricsSnapshot, route string) map[string]StageStats {
	out := make(map[string]StageStats)
	for stage, h := range after.StageHistograms(route) {
		d := h.Sub(before.Histograms[h.Name])
		if d.Count == 0 {
			continue
		}
		out[stage] = StageStats{
			Count:  d.Count,
			MeanUS: d.Mean(),
			P50US:  d.Quantile(0.50),
			P99US:  d.Quantile(0.99),
		}
	}
	return out
}

// chaosVariants derives n spec bodies with distinct ids — and therefore
// distinct canonical fingerprints — from one base spec, so a chaos run
// exercises every replica in a fingerprint-routed fleet. The id rewrite
// is deterministic ("ID-chaos0" … "ID-chaosN"): two chaos runs generate
// the same pool and therefore the same ring spread.
func chaosVariants(base []byte, n int) ([][]byte, error) {
	if n <= 0 {
		n = 8
	}
	var m map[string]any
	if err := json.Unmarshal(base, &m); err != nil {
		return nil, fmt.Errorf("loadgen: chaos spec is not a JSON object: %w", err)
	}
	id, _ := m["id"].(string)
	if id == "" {
		id = "chaos"
	}
	out := make([][]byte, n)
	for i := range out {
		m["id"] = fmt.Sprintf("%s-chaos%d", id, i)
		b, err := json.Marshal(m)
		if err != nil {
			return nil, fmt.Errorf("loadgen: rebuilding chaos variant: %w", err)
		}
		out[i] = b
	}
	return out, nil
}

// percentile returns the p-quantile of sorted samples (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
