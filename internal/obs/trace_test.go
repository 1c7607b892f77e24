package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace(NewTraceID(), "eval", false)
	ctx := WithTrace(context.Background(), tr)

	ctx1, parse := StartTraceSpan(ctx, "parse")
	_ = ctx1
	parse.End()

	ctx2, sf := StartTraceSpan(ctx, "singleflight")
	ctx3, eval := StartTraceSpan(ctx2, "scenario.eval")
	_, solve := StartTraceSpan(ctx3, "scaling.solve")
	solve.End()
	eval.End()
	sf.End()

	rec := tr.Finish(200)
	if rec.Status != 200 || rec.Route != "eval" || rec.ID == "" {
		t.Fatalf("record header = %+v", rec)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(rec.Spans))
	}
	byName := map[string]TraceSpanRecord{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	if byName["parse"].Parent != 0 || byName["singleflight"].Parent != 0 {
		t.Errorf("top-level spans must have parent 0: %+v", rec.Spans)
	}
	if byName["scenario.eval"].Parent != byName["singleflight"].ID {
		t.Errorf("scenario.eval parent = %d, want singleflight id %d",
			byName["scenario.eval"].Parent, byName["singleflight"].ID)
	}
	if byName["scaling.solve"].Parent != byName["scenario.eval"].ID {
		t.Errorf("scaling.solve parent = %d, want scenario.eval id %d",
			byName["scaling.solve"].Parent, byName["scenario.eval"].ID)
	}
}

func TestTraceNilSafety(t *testing.T) {
	// No trace in context: spans are nil no-ops.
	ctx, sp := StartTraceSpan(context.Background(), "stage")
	if sp != nil {
		t.Fatal("untraced context must yield a nil span")
	}
	sp.End() // must not panic
	if tr := TraceFrom(ctx); tr != nil {
		t.Fatal("TraceFrom on untraced ctx must be nil")
	}
	var nilTr *Trace
	nilTr.SetAttr("k", "v")
	if nilTr.Finish(200) != nil || nilTr.ID() != "" {
		t.Fatal("nil trace methods must no-op")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("t", "r", false)
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < maxTraceSpans+7; i++ {
		_, sp := StartTraceSpan(ctx, "s")
		sp.End()
	}
	rec := tr.Finish(200)
	if len(rec.Spans) != maxTraceSpans || rec.Dropped != 7 {
		t.Errorf("spans = %d dropped = %d, want %d and 7", len(rec.Spans), rec.Dropped, maxTraceSpans)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("t", "r", false)
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartTraceSpan(ctx, "cell")
			sp.End()
		}()
	}
	wg.Wait()
	rec := tr.Finish(200)
	if len(rec.Spans) != 64 {
		t.Errorf("spans = %d, want 64", len(rec.Spans))
	}
	seen := map[int]bool{}
	for _, sp := range rec.Spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		seen[sp.ID] = true
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceAttrsAndWall(t *testing.T) {
	tr := NewTrace("t", "r", false)
	tr.SetAttr("cache", "hit")
	tr.SetAttr("shared", "false")
	time.Sleep(2 * time.Millisecond)
	rec := tr.Finish(200)
	if rec.Attrs["cache"] != "hit" || rec.Attrs["shared"] != "false" {
		t.Errorf("attrs = %v", rec.Attrs)
	}
	if rec.Wall < 2*time.Millisecond || rec.WallNS != rec.Wall.Nanoseconds() {
		t.Errorf("wall = %v (ns %d)", rec.Wall, rec.WallNS)
	}
}

func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{10, 100})
	h.ObserveEx(5, "trace-a")
	h.ObserveEx(500, "trace-slow")
	h.Observe(7) // plain observation must not disturb exemplars
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatal("missing histogram")
	}
	b := snap.Histograms[0].Buckets
	if b[0].Exemplar == nil || b[0].Exemplar.Label != "trace-a" {
		t.Errorf("bucket 0 exemplar = %+v, want trace-a", b[0].Exemplar)
	}
	if b[2].Exemplar == nil || b[2].Exemplar.Label != "trace-slow" || b[2].Exemplar.Value != 500 {
		t.Errorf("overflow exemplar = %+v, want trace-slow@500", b[2].Exemplar)
	}
	if b[1].Exemplar != nil {
		t.Errorf("untouched bucket has exemplar %+v", b[1].Exemplar)
	}
	var nilH *Histogram
	nilH.ObserveEx(1, "x") // no-op
}

// allocSink keeps the test allocations below live.
var allocSink []byte

// TestTraceAllocSampledRootOnly: of eight consecutive request traces
// that each allocate 1 MiB, exactly the one SampleAllocs picks reads it
// at the root; the others skip the runtime/metrics reads and read 0.
func TestTraceAllocSampledRootOnly(t *testing.T) {
	sampled := 0
	for i := 0; i < allocSampleEvery; i++ {
		tr := NewTrace(NewTraceID(), "alloc", SampleAllocs())
		allocSink = make([]byte, 1<<20)
		rec := tr.Finish(200)
		switch {
		case tr.allocDetail && rec.AllocBytes >= 1<<20:
			sampled++
		case tr.allocDetail:
			t.Errorf("sampled trace read alloc_bytes %d, want >= 1 MiB", rec.AllocBytes)
		case rec.AllocBytes != 0:
			t.Errorf("unsampled trace read alloc_bytes %d, want 0", rec.AllocBytes)
		}
	}
	if sampled != 1 {
		t.Errorf("%d of %d traces read their allocation, want exactly 1", sampled, allocSampleEvery)
	}
}
