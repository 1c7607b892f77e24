package obs

import (
	"context"
	"testing"
)

// BenchmarkHeapAllocBytes is the trace hot path's one runtime/metrics
// read: its sample array comes from a pool, so it reports no allocation.
func BenchmarkHeapAllocBytes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		heapAllocBytes()
	}
}

// BenchmarkTraceSpanPair pins the cost of one leaf span open/close on a
// trace WITH alloc-delta sampling enabled (the expensive 1-in-N case).
func BenchmarkTraceSpanPair(b *testing.B) {
	tr := NewTrace(NewTraceID(), "bench", true)
	ctx := WithTrace(context.Background(), tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartTraceSpanLeaf(ctx, "s")
		sp.End()
	}
}

// BenchmarkTraceSpanPairNoAlloc is the common (sampled-out) case: no
// runtime/metrics read on End.
func BenchmarkTraceSpanPairNoAlloc(b *testing.B) {
	tr := NewTrace(NewTraceID(), "bench", false)
	ctx := WithTrace(context.Background(), tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartTraceSpanLeaf(ctx, "s")
		sp.End()
	}
}

// BenchmarkFullRequestTrace is the whole per-request tracing bill as the
// serve tier pays it — NewTrace, five leaf stage spans, Finish — at the
// production alloc-sampling rate (1 in allocSampleEvery traces reads
// the heap counter per span).
func BenchmarkFullRequestTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := NewTrace(NewTraceID(), "bench", SampleAllocs())
		ctx := WithTrace(context.Background(), tr)
		for j := 0; j < 5; j++ {
			sp := StartTraceSpanLeaf(ctx, "s")
			sp.End()
		}
		tr.Finish(200)
	}
}
