package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
)

// This file is the client side of /metrics: a scraper of the NDJSON
// exposition plus snapshot arithmetic (deltas, quantiles) shared by the
// loadgen stage-breakdown report and the `bandwall top` dashboard.

// MetricsSnapshot is one scrape of a server's /metrics?format=ndjson.
type MetricsSnapshot struct {
	// Tier is the answering tier's metric-name prefix ("serve" or
	// "fleet", from its TierHeader): the series Requests and
	// StageHistograms read.
	Tier       string
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// HistogramSnapshot is one histogram series as scraped.
type HistogramSnapshot struct {
	Name    string
	Count   uint64
	Sum     float64
	Buckets []BucketSnapshot
}

// BucketSnapshot is one (non-cumulative) histogram bucket; LE is +Inf
// for the overflow bucket. ExemplarTrace names the last trace observed
// into the bucket, when the server recorded one.
type BucketSnapshot struct {
	LE            float64
	Count         uint64
	ExemplarTrace string
}

// Counter returns the named counter, zero if absent.
func (s MetricsSnapshot) Counter(name string) uint64 { return s.Counters[name] }

// Requests returns the answering tier's request counter.
func (s MetricsSnapshot) Requests() uint64 { return s.Counters[s.Tier+".requests"] }

// Gauge returns the named gauge, zero if absent.
func (s MetricsSnapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Sub returns the histogram of observations that happened after prev
// was taken: counts, sums, and per-bucket counts are differenced.
// Exemplars keep the newer snapshot's values.
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Name:    h.Name,
		Count:   h.Count - prev.Count,
		Sum:     h.Sum - prev.Sum,
		Buckets: make([]BucketSnapshot, len(h.Buckets)),
	}
	copy(out.Buckets, h.Buckets)
	if len(prev.Buckets) == len(h.Buckets) {
		for i := range out.Buckets {
			out.Buckets[i].Count -= prev.Buckets[i].Count
		}
	}
	return out
}

// Mean returns the average observed value, zero when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts
// with linear interpolation inside the landing bucket — the classic
// histogram_quantile. The overflow bucket reports its lower bound (the
// estimate is then a floor, not an interpolation). Observations are
// non-negative, so by Markov's inequality the q-quantile is at most
// mean/(1−q) for q < 1; an estimate above that bound reads the bound, so
// a stage far below the first bucket's bound does not read half of it.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	est := h.interpolate(q)
	if q < 1 {
		return math.Min(est, h.Mean()/(1-q))
	}
	return est
}

// interpolate is Quantile's bucket estimate before the mean bound.
func (h HistogramSnapshot) interpolate(q float64) float64 {
	rank := q * float64(h.Count)
	cum := uint64(0)
	lower := 0.0
	for _, b := range h.Buckets {
		prev := cum
		cum += b.Count
		if float64(cum) >= rank {
			if math.IsInf(b.LE, 1) {
				return lower
			}
			if b.Count == 0 {
				return b.LE
			}
			frac := (rank - float64(prev)) / float64(b.Count)
			return lower + (b.LE-lower)*frac
		}
		if !math.IsInf(b.LE, 1) {
			lower = b.LE
		}
	}
	return lower
}

// SlowestExemplar returns the trace named by the highest non-empty
// bucket carrying one — the trace to pull from /v1/trace when asking
// "what does this histogram's tail look like".
func (h HistogramSnapshot) SlowestExemplar() string {
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if h.Buckets[i].Count > 0 && h.Buckets[i].ExemplarTrace != "" {
			return h.Buckets[i].ExemplarTrace
		}
	}
	return ""
}

// StageHistograms extracts the answering tier's per-stage histograms of
// one route ("{tier}.stage_us.{route}.{stage}"), keyed by bare stage
// name.
func (s MetricsSnapshot) StageHistograms(route string) map[string]HistogramSnapshot {
	prefix := stageHistName(s.Tier, route, "")
	out := make(map[string]HistogramSnapshot)
	for name, h := range s.Histograms {
		if stage, ok := strings.CutPrefix(name, prefix); ok {
			out[stage] = h
		}
	}
	return out
}

// ScrapeMetrics fetches and parses baseURL's /metrics NDJSON exposition:
// its counter, gauge and histogram lines.
func ScrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (MetricsSnapshot, error) {
	snap := MetricsSnapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics?format=ndjson", nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("scraping metrics: %s", resp.Status)
	}
	snap.Tier = resp.Header.Get(TierHeader)

	type line struct {
		Kind    string      `json:"kind"`
		Name    string      `json:"name"`
		Value   json.Number `json:"value"`
		Count   uint64      `json:"count"`
		Sum     float64     `json:"sum"`
		Buckets []struct {
			LE       *float64 `json:"le"`
			Count    uint64   `json:"count"`
			Exemplar *struct {
				Trace string  `json:"trace"`
				Value float64 `json:"value"`
			} `json:"exemplar"`
		} `json:"buckets"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return snap, fmt.Errorf("parsing metrics line: %w", err)
		}
		switch l.Kind {
		case "counter":
			v, _ := l.Value.Int64()
			snap.Counters[l.Name] = uint64(v)
		case "gauge":
			v, _ := l.Value.Float64()
			snap.Gauges[l.Name] = v
		case "histogram":
			h := HistogramSnapshot{Name: l.Name, Count: l.Count, Sum: l.Sum,
				Buckets: make([]BucketSnapshot, len(l.Buckets))}
			for i, b := range l.Buckets {
				bs := BucketSnapshot{LE: math.Inf(1), Count: b.Count}
				if b.LE != nil {
					bs.LE = *b.LE
				}
				if b.Exemplar != nil {
					bs.ExemplarTrace = b.Exemplar.Trace
				}
				h.Buckets[i] = bs
			}
			snap.Histograms[l.Name] = h
		}
	}
	return snap, sc.Err()
}
