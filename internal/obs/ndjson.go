package obs

import (
	"encoding/json"
	"io"
	"math"
	"time"
)

// NDJSON line shapes. Every line carries a "kind" discriminator so
// consumers can stream-filter without schema knowledge. The overflow
// histogram bucket's upper bound is encoded as null (JSON has no +Inf).
type (
	ndjsonTrace struct {
		Kind       string            `json:"kind"` // "trace"
		Name       string            `json:"name"` // the trace's route
		ID         string            `json:"id"`
		Status     string            `json:"status"`
		Start      string            `json:"start"` // RFC3339Nano
		WallNS     int64             `json:"wall_ns"`
		WallMS     float64           `json:"wall_ms"`
		AllocBytes uint64            `json:"alloc_bytes"`
		Spans      []TraceSpanRecord `json:"spans"`
		Dropped    int               `json:"dropped,omitempty"`
	}
	ndjsonCounter struct {
		Kind  string `json:"kind"` // "counter"
		Name  string `json:"name"`
		Value uint64 `json:"value"`
	}
	ndjsonGauge struct {
		Kind  string  `json:"kind"` // "gauge"
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	ndjsonBucket struct {
		LE       *float64        `json:"le"` // nil encodes the +Inf overflow bucket
		Count    uint64          `json:"count"`
		Exemplar *ndjsonExemplar `json:"exemplar,omitempty"`
	}
	ndjsonExemplar struct {
		Trace string  `json:"trace"`
		Value float64 `json:"value"`
	}
	ndjsonHistogram struct {
		Kind    string         `json:"kind"` // "histogram"
		Name    string         `json:"name"`
		Count   uint64         `json:"count"`
		Sum     float64        `json:"sum"`
		Buckets []ndjsonBucket `json:"buckets"`
	}
)

// WriteTraceNDJSON writes one finished trace as a "trace" line holding
// its span tree; status says how the traced work ended (a CLI run's ok,
// failed or canceled).
func WriteTraceNDJSON(w io.Writer, rec *TraceRecord, status string) error {
	return json.NewEncoder(w).Encode(ndjsonTrace{
		Kind:       "trace",
		Name:       rec.Route,
		ID:         rec.ID,
		Status:     status,
		Start:      rec.Start.Format(time.RFC3339Nano),
		WallNS:     rec.WallNS,
		WallMS:     float64(rec.WallNS) / 1e6,
		AllocBytes: rec.AllocBytes,
		Spans:      rec.Spans,
		Dropped:    rec.Dropped,
	})
}

// WriteNDJSON emits the registry's snapshot as newline-delimited JSON:
// one object per counter, gauge, and histogram (each sorted by name). A
// nil registry writes nothing.
func (r *Registry) WriteNDJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	enc := json.NewEncoder(w)
	for _, c := range snap.Counters {
		if err := enc.Encode(ndjsonCounter{Kind: "counter", Name: c.Name, Value: c.Value}); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		if err := enc.Encode(ndjsonGauge{Kind: "gauge", Name: g.Name, Value: g.Value}); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		line := ndjsonHistogram{
			Kind:    "histogram",
			Name:    h.Name,
			Count:   h.Count,
			Sum:     h.Sum,
			Buckets: make([]ndjsonBucket, len(h.Buckets)),
		}
		for i, b := range h.Buckets {
			nb := ndjsonBucket{Count: b.Count}
			if !math.IsInf(b.LE, 1) {
				le := b.LE
				nb.LE = &le
			}
			if b.Exemplar != nil {
				nb.Exemplar = &ndjsonExemplar{Trace: b.Exemplar.Label, Value: b.Exemplar.Value}
			}
			line.Buckets[i] = nb
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
