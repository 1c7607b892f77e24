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
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
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
}

// TestSpanRecords: a span on an allocation-sampled trace records its
// name, its wall-clock time and the bytes allocated while it was open,
// and the trace's root reads them too.
func TestSpanRecords(t *testing.T) {
	tr := NewTrace(NewTraceID(), "run", true)
	_, sp := StartTraceSpan(WithTrace(context.Background(), tr), "work")
	// Allocate something measurable and burn a little wall clock.
	allocSink = make([]byte, 1<<20)
	time.Sleep(time.Millisecond)
	sp.End()
	rec := tr.Finish(0)
	if len(rec.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(rec.Spans))
	}
	sr := rec.Spans[0]
	if sr.Name != "work" {
		t.Errorf("name = %q", sr.Name)
	}
	if sr.WallNS < time.Millisecond.Nanoseconds() {
		t.Errorf("wall = %dns, want >= 1ms", sr.WallNS)
	}
	if sr.AllocBytes < 1<<20 || rec.AllocBytes < 1<<20 {
		t.Errorf("alloc bytes: span %d, trace %d, want >= 1MiB each", sr.AllocBytes, rec.AllocBytes)
	}
}

// TestSpansDoNotStopTheWorld pins that spans never pause the program: n
// allocation-sampled traces of one span each, the shape of a CLI run's
// experiment, take 3n runtime/metrics reads and must add fewer than n
// non-GC stop-the-world pauses. One runtime.ReadMemStats call adds
// exactly one.
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
	spans := 0
	before := pauses()
	for i := 0; i < n; i++ {
		tr := NewTrace(NewTraceID(), "run", true)
		_, sp := StartTraceSpan(WithTrace(context.Background(), tr), "exp.x")
		sp.End()
		spans += len(tr.Finish(0).Spans)
	}
	if got := pauses() - before; got >= n {
		t.Errorf("%d sampled one-span traces stopped the world %d times, want < %d", n, got, n)
	}
	if spans != n {
		t.Errorf("traces recorded %d spans, want %d", spans, n)
	}
}

// TestHeapAllocReadsDoNotAllocate pins that the runtime/metrics read
// behind every allocation figure allocates nothing.
func TestHeapAllocReadsDoNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { heapAllocBytes() }); n != 0 {
		t.Errorf("heapAllocBytes allocates %v times a read, want 0", n)
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
	tr := NewTrace(NewTraceID(), "exp.fig02", true)
	_, sp := StartTraceSpan(WithTrace(context.Background(), tr), "exp.fig02")
	sp.End()
	var buf bytes.Buffer
	if err := WriteTraceNDJSON(&buf, tr.Finish(0), "ok"); err != nil {
		t.Fatal(err)
	}
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
	for _, k := range []string{"trace", "counter", "gauge", "histogram"} {
		if kinds[k] != 1 {
			t.Errorf("kind %q appears %d times, want 1", k, kinds[k])
		}
	}
	// The trace line says how the run ended and carries its span tree.
	var trace struct {
		Status string `json:"status"`
		WallNS int64  `json:"wall_ns"`
		Spans  []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Status != "ok" || trace.WallNS <= 0 || len(trace.Spans) != 1 || trace.Spans[0].Name != "exp.fig02" {
		t.Errorf("trace line = %s", lines[0])
	}
	// The overflow bucket must encode as null.
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
// contract: incrementing nil instruments and opening spans on an
// untraced context must not allocate.
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
		_, sp := StartTraceSpan(context.Background(), "x")
		sp.End()
		r.Counter("y").Inc()
	}); n != 0 {
		t.Errorf("disabled path allocates %.1f allocs/op, want 0", n)
	}
}
