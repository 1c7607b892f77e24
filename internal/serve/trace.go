package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// TraceHeader is the response header naming the request's trace, so any
// client can immediately fetch its span tree from GET /v1/trace?id=.
const TraceHeader = "X-Bandwall-Trace"

// Stage names recorded as top-level trace spans on the query pipeline
// (and as per-route histograms {tier}.stage_us.{route}.{stage}).
const (
	StageAdmit        = "admit"        // admission-semaphore acquisition
	StageParse        = "parse"        // body read + key-memo lookup + strict spec parse (memo miss only)
	StageFingerprint  = "fingerprint"  // canonical spec fingerprint (empty on a key-memo hit)
	StageCacheLookup  = "cache.lookup" // response-LRU probe
	StageSingleflight = "singleflight" // leader solve or follower wait
	StageRender       = "render"       // outcome → response bytes (inside singleflight)
	StageForward      = "forward"      // gateway only: the hedged, failing-over replica chain
	StageWrite        = "write"        // response write (at the gateway: the relay)
	StageTotal        = "total"        // whole request (root)
)

// traceRing is the fixed-size ring of completed request traces behind
// GET /v1/trace: always-on, bounded memory, one short mutex'd store per
// request. Old traces are overwritten, never freed lazily, so the
// ring's footprint is size × (capped span count).
type traceRing struct {
	mu   sync.Mutex
	buf  []*obs.TraceRecord
	next int
	full bool
}

func newTraceRing(size int) *traceRing {
	return &traceRing{buf: make([]*obs.TraceRecord, size)}
}

// Push retains rec, evicting the oldest retained trace when full.
func (r *traceRing) Push(rec *obs.TraceRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot copies the retained traces, most recent first.
func (r *traceRing) Snapshot() []*obs.TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*obs.TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-1-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// SpanInfo is one span of a trace on the wire, microsecond units.
type SpanInfo struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"` // 0 = the request root
	Name       string  `json:"name"`
	StartUS    float64 `json:"start_us"` // offset from the request start
	WallUS     float64 `json:"wall_us"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// TraceInfo is one completed request in the GET /v1/trace response.
type TraceInfo struct {
	ID         string            `json:"id"`
	Route      string            `json:"route"`
	Status     int               `json:"status"`
	Start      time.Time         `json:"start"`
	WallMS     float64           `json:"wall_ms"`
	AllocBytes uint64            `json:"alloc_bytes"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanInfo        `json:"spans"`
	Dropped    int               `json:"dropped,omitempty"` // spans beyond the per-trace cap
}

// TraceList is the GET /v1/trace response body.
type TraceList struct {
	Count  int         `json:"count"` // traces matching the filter (before limit)
	Traces []TraceInfo `json:"traces"`
}

func traceInfoOf(rec *obs.TraceRecord) TraceInfo {
	ti := TraceInfo{
		ID:         rec.ID,
		Route:      rec.Route,
		Status:     rec.Status,
		Start:      rec.Start,
		WallMS:     float64(rec.WallNS) / 1e6,
		AllocBytes: rec.AllocBytes,
		Attrs:      rec.Attrs,
		Spans:      make([]SpanInfo, len(rec.Spans)),
		Dropped:    rec.Dropped,
	}
	for i, sp := range rec.Spans {
		ti.Spans[i] = SpanInfo{
			ID:         sp.ID,
			Parent:     sp.Parent,
			Name:       sp.Name,
			StartUS:    float64(sp.StartNS) / 1e3,
			WallUS:     float64(sp.WallNS) / 1e3,
			AllocBytes: sp.AllocBytes,
		}
	}
	return ti
}

// handleTrace serves the recent-trace ring, most recent first.
// Filters: ?id= (exact trace), ?route= (route name), ?slow=D (wall ≥ D,
// e.g. 5ms; slow=0 matches everything), ?limit=N (default 50).
func (f *Front) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minWall time.Duration
	if v := q.Get("slow"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			WriteError(w, r, http.StatusBadRequest, KindBadRequest,
				fmt.Errorf("invalid slow threshold %q (want a non-negative Go duration)", v))
			return
		}
		minWall = d
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteError(w, r, http.StatusBadRequest, KindBadRequest,
				fmt.Errorf("invalid limit %q (want a positive integer)", v))
			return
		}
		limit = n
	}
	id, route := q.Get("id"), q.Get("route")

	list := TraceList{Traces: []TraceInfo{}}
	for _, rec := range f.ring.Snapshot() {
		if id != "" && rec.ID != id {
			continue
		}
		if route != "" && rec.Route != route {
			continue
		}
		if rec.Wall < minWall {
			continue
		}
		list.Count++
		if len(list.Traces) < limit {
			list.Traces = append(list.Traces, traceInfoOf(rec))
		}
	}
	WriteJSON(w, http.StatusOK, list)
}

// stageBounds are the stage-latency histogram buckets in microseconds:
// 5µs .. 1s. Stages are finer-grained than whole requests, so the scale
// starts an order of magnitude below latencyBounds.
var stageBounds = []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1e6}
