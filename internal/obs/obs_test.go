package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	if c == nil {
		t.Fatal("Counter returned nil on a live registry")
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("a.b"); again != c {
		t.Error("same name must return the same counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Errorf("gauge = %g, want -1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if got := h.count.Load(); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
	if got := math.Float64frombits(h.sumBits.Load()); math.Abs(got-111.5) > 1e-12 {
		t.Errorf("sum = %g, want 111.5", got)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	// le-inclusive: bucket[0] (<=1) gets {0,1}; bucket[1] (<=2) gets
	// {1.5,2}; bucket[2] (<=4) gets {3,4}; overflow gets {100}.
	wantCounts := []uint64{2, 2, 2, 1}
	for i, b := range hv.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(hv.Buckets[3].LE, 1) {
		t.Errorf("overflow bucket LE = %g, want +Inf", hv.Buckets[3].LE)
	}
	if got := hv.Mean(); math.Abs(got-111.5/7) > 1e-12 {
		t.Errorf("mean = %g", got)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(9)
	g.Set(1)
	h.Observe(1)
	sp := r.StartSpan("x")
	sp.End()
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry NDJSON: err=%v len=%d", err, buf.Len())
	}
}

func TestDefaultRegistrySwap(t *testing.T) {
	prev := Default()
	defer SetDefault(prev)
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) must disable")
	}
	if sp := StartSpan("x"); sp != nil {
		t.Error("StartSpan must return nil when disabled")
	}
	r := NewRegistry()
	SetDefault(r)
	if Default() != r {
		t.Fatal("SetDefault must install")
	}
	Default().Counter("d").Inc()
	if r.Counter("d").Value() != 1 {
		t.Error("default registry did not record")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r.Counter("c").Inc()
				r.Histogram("h", []float64{1, 10, 100}).Observe(float64(j % 7))
				sp := r.StartSpan("s")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
	h := r.Histogram("h", nil)
	if got := h.count.Load(); got != goroutines*per {
		t.Errorf("histogram count = %d, want %d", got, goroutines*per)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != goroutines*per {
		t.Errorf("spans = %d, want %d", len(snap.Spans), goroutines*per)
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("work")
	// Allocate something measurable and burn a little wall clock.
	buf := make([]byte, 1<<20)
	_ = buf[len(buf)-1]
	time.Sleep(time.Millisecond)
	sp.End()
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(snap.Spans))
	}
	rec := snap.Spans[0]
	if rec.Name != "work" {
		t.Errorf("name = %q", rec.Name)
	}
	if rec.Wall < time.Millisecond {
		t.Errorf("wall = %v, want >= 1ms", rec.Wall)
	}
	if rec.AllocBytes < 1<<20 {
		t.Errorf("alloc bytes = %d, want >= 1MiB", rec.AllocBytes)
	}
	if rec.Mallocs == 0 {
		t.Error("mallocs = 0, want > 0")
	}
}

// TestSpansDoNotStopTheWorld pins that neither span kind pauses the
// program: n run-span pairs and n trace-span pairs on an alloc-sampled
// trace must add fewer than n non-GC stop-the-world pauses. One
// runtime.ReadMemStats call adds exactly one.
func TestSpansDoNotStopTheWorld(t *testing.T) {
	pauses := func() uint64 {
		s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindFloat64Histogram {
			t.Fatalf("%s unsupported by this runtime", s[0].Name)
		}
		var n uint64
		for _, c := range s[0].Value.Float64Histogram().Counts {
			n += c
		}
		return n
	}
	const n = 100
	r := NewRegistry()
	tr := NewTrace(NewTraceID(), "t", 0)
	tr.allocDetail = true
	ctx := WithTrace(context.Background(), tr)
	before := pauses()
	for i := 0; i < n; i++ {
		r.StartSpan("run").End()
		_, sp := StartTraceSpan(ctx, "stage")
		sp.End()
	}
	if got := pauses() - before; got >= n {
		t.Errorf("%d span pairs of each kind stopped the world %d times, want < %d", n, got, n)
	}
	if spans := len(r.Snapshot().Spans); spans != n {
		t.Errorf("registry recorded %d spans, want %d", spans, n)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		r.Counter(n).Inc()
		r.Gauge("g." + n).Set(1)
		r.Histogram("h."+n, []float64{1}).Observe(0)
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name > snap.Counters[i].Name {
			t.Fatal("counters not sorted")
		}
	}
	for i := 1; i < len(snap.Histograms); i++ {
		if snap.Histograms[i-1].Name > snap.Histograms[i].Name {
			t.Fatal("histograms not sorted")
		}
	}
}

func TestWriteNDJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("cachesim.accesses").Add(42)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{1, 2}).Observe(3)
	sp := r.StartSpan("exp.fig02")
	sp.End()
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d NDJSON lines, want 4:\n%s", len(lines), buf.String())
	}
	kinds := map[string]int{}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q not JSON: %v", ln, err)
		}
		kind, _ := m["kind"].(string)
		kinds[kind]++
		if name, _ := m["name"].(string); name == "" {
			t.Errorf("line %q missing name", ln)
		}
	}
	for _, k := range []string{"span", "counter", "gauge", "histogram"} {
		if kinds[k] != 1 {
			t.Errorf("kind %q appears %d times, want 1", k, kinds[k])
		}
	}
	// The overflow bucket must encode as null, and the span wall fields
	// must be present and consistent.
	var hist struct {
		Buckets []struct {
			LE    *float64 `json:"le"`
			Count uint64   `json:"count"`
		} `json:"buckets"`
	}
	for _, ln := range lines {
		if strings.Contains(ln, `"histogram"`) {
			if err := json.Unmarshal([]byte(ln), &hist); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(hist.Buckets) != 3 || hist.Buckets[2].LE != nil || hist.Buckets[2].Count != 1 {
		t.Errorf("histogram buckets wrong: %+v", hist.Buckets)
	}
}

// TestDisabledPathAllocates enforces the zero-cost-when-disabled
// contract: incrementing nil instruments and opening nil spans must not
// allocate.
func TestDisabledPathAllocates(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(2)
		sp := r.StartSpan("x")
		sp.End()
		r.Counter("y").Inc()
	}); n != 0 {
		t.Errorf("disabled path allocates %.1f allocs/op, want 0", n)
	}
}
