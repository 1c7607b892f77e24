package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/serve"
)

// cmdTop polls a running bandwall serve or gateway and renders a live
// terminal dashboard: throughput and cache behavior from /metrics
// deltas, the per-stage latency breakdown of one route on the target's
// tier, runtime health gauges, and the slowest recent traces from
// /v1/trace — the operator's one-screen answer to "what is the server
// doing right now".
func cmdTop(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "server base URL")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	iters := fs.Int("n", 0, "refresh count (0: run until interrupted)")
	route := fs.String("route", "eval", "route whose stage breakdown to show")
	plain := fs.Bool("plain", false, "append frames instead of clearing the screen")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("top: unexpected argument %q", fs.Arg(0))
	}

	client := &http.Client{Timeout: 10 * time.Second}
	var prev serve.MetricsSnapshot
	var prevAt time.Time
	for i := 0; *iters <= 0 || i < *iters; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(*interval):
			}
		}
		snap, err := serve.ScrapeMetrics(ctx, client, *url)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		now := time.Now()
		traces, terr := fetchTopTraces(ctx, client, *url, 5)
		if !*plain {
			fmt.Fprint(out, "\x1b[2J\x1b[H") // clear + home
		}
		renderTopFrame(out, *url, *route, snap, prev, now.Sub(prevAt), i > 0, traces, terr)
		prev, prevAt = snap, now
	}
	return nil
}

// fetchTopTraces pulls the most recent traces, slowest first.
func fetchTopTraces(ctx context.Context, client *http.Client, base string, n int) ([]serve.TraceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/trace?limit=%d", base, 4*n), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/trace: %s", resp.Status)
	}
	var list serve.TraceList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	sort.SliceStable(list.Traces, func(i, j int) bool { return list.Traces[i].WallMS > list.Traces[j].WallMS })
	if len(list.Traces) > n {
		list.Traces = list.Traces[:n]
	}
	return list.Traces, nil
}

// renderTopFrame writes one dashboard frame.
func renderTopFrame(out io.Writer, url, route string, snap, prev serve.MetricsSnapshot, window time.Duration, haveDelta bool, traces []serve.TraceInfo, terr error) {
	fmt.Fprintf(out, "bandwall top — %s (%s tier) — %s\n\n", url, snap.Tier, time.Now().Format(time.TimeOnly))

	// The replica-only parts (inflight, cache and solves, runtime) print
	// only when the snapshot carries their series: a gateway registers
	// none of them, and a zero there would read as measured.
	reqs := snap.Requests()
	fmt.Fprintf(out, "requests %d", reqs)
	if haveDelta && window > 0 {
		fmt.Fprintf(out, "  (%.0f req/s)", float64(reqs-prev.Requests())/window.Seconds())
	}
	if _, ok := snap.Gauges[serve.MetricInflight]; ok {
		fmt.Fprintf(out, "  inflight %.0f  saturated %d", snap.Gauge(serve.MetricInflight), snap.Counter(serve.MetricSaturated))
	}
	fmt.Fprintln(out)

	if _, ok := snap.Counters[serve.MetricCacheHits]; ok {
		ch, cm := snap.Counter(serve.MetricCacheHits), snap.Counter(serve.MetricCacheMisses)
		ratio := 0.0
		if ch+cm > 0 {
			ratio = 100 * float64(ch) / float64(ch+cm)
		}
		fmt.Fprintf(out, "cache hits %d / misses %d (%.1f%%)  solves %d  shared flights %d\n",
			ch, cm, ratio, snap.Counter(serve.MetricEvalSolves), snap.Counter(serve.MetricSingleflightShared))
	}
	if _, ok := snap.Gauges[serve.MetricGoroutines]; ok {
		fmt.Fprintf(out, "goroutines %.0f  heap %.1f MiB  gc cycles %.0f  gc pause %.1f ms total\n",
			snap.Gauge(serve.MetricGoroutines), snap.Gauge(serve.MetricHeapBytes)/(1<<20),
			snap.Gauge(serve.MetricGCCycles), snap.Gauge(serve.MetricGCPauseMS))
	}
	fmt.Fprintln(out)

	stages := snap.StageHistograms(route)
	if len(stages) > 0 {
		fmt.Fprintf(out, "stage latency (%s, cumulative, µs):\n", route)
		fmt.Fprintf(out, "  %-14s %8s %10s %10s %10s  %s\n", "stage", "count", "mean", "p50", "p99", "slowest trace")
		names := make([]string, 0, len(stages))
		for name := range stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := stages[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-14s %8d %10.1f %10.1f %10.1f  %s\n",
				name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.SlowestExemplar())
		}
		fmt.Fprintln(out)
	}

	switch {
	case terr != nil:
		fmt.Fprintf(out, "traces: unavailable (%v)\n", terr)
	case len(traces) == 0:
		fmt.Fprintf(out, "traces: none recorded yet\n")
	default:
		fmt.Fprintf(out, "slowest recent traces (GET /v1/trace?id=…):\n")
		fmt.Fprintf(out, "  %-18s %-12s %6s %10s %7s\n", "id", "route", "status", "wall ms", "spans")
		for _, tr := range traces {
			fmt.Fprintf(out, "  %-18s %-12s %6d %10.3f %7d\n", tr.ID, tr.Route, tr.Status, tr.WallMS, len(tr.Spans))
		}
	}
}
