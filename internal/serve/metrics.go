package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// TierHeader names the tier that answered GET /metrics: its metric-name
// prefix, "serve" on a replica or "fleet" at the gateway. A process that
// runs both tiers shares one registry, so the scraper reads the
// target's own series by this prefix.
const TierHeader = "X-Bandwall-Tier"

// handleMetrics snapshots the process obs registry. The default
// rendering is a Prometheus-style text exposition (dots in metric names
// become underscores); ?format=ndjson (or an Accept header of
// application/x-ndjson) switches to the repo's NDJSON dump: the counter,
// gauge and histogram lines `bandwall run -metrics` writes after its
// per-run trace lines. The registry holds no spans; they live in
// /v1/trace.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := f.reg
	w.Header().Set(TierHeader, f.tier)
	if reg == nil {
		WriteError(w, r, http.StatusServiceUnavailable, KindInternal,
			fmt.Errorf("metrics collection is disabled (no obs registry installed)"))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		format = "ndjson"
	}
	switch format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetricsText(w, reg)
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = reg.WriteNDJSON(w)
	default:
		WriteError(w, r, http.StatusBadRequest, KindBadRequest,
			fmt.Errorf("unknown metrics format %q (want text or ndjson)", format))
	}
}

// writeMetricsText renders counters, gauges, and histograms in the
// Prometheus text exposition shape, the same series the NDJSON dump
// carries. Neither format has spans: requests' traces are served by
// /v1/trace.
func writeMetricsText(w io.Writer, reg *obs.Registry) {
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		fmt.Fprintf(w, "%s %d\n", promName(c.Name), c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(w, "%s %g\n", promName(g.Name), g.Value)
	}
	for _, h := range snap.Histograms {
		name := promName(h.Name)
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if !math.IsInf(b.LE, 1) {
				le = fmt.Sprintf("%g", b.LE)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d", name, le, cum)
			// OpenMetrics-style exemplar: the last trace observed into this
			// bucket, so a fat slow bucket names a concrete /v1/trace?id= to
			// pull up.
			if b.Exemplar != nil {
				fmt.Fprintf(w, " # {trace_id=%q} %g", b.Exemplar.Label, b.Exemplar.Value)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
}

// promName maps the registry's dotted names onto the Prometheus
// charset: dots and slashes become underscores, and everything gets
// the bandwall_ namespace prefix.
func promName(name string) string {
	repl := strings.NewReplacer(".", "_", "/", "_", "-", "_")
	return "bandwall_" + repl.Replace(name)
}
