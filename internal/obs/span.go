package obs

import (
	"runtime/metrics"
	"time"
)

// SpanRecord is one completed span: a named region of a run with its
// wall-clock duration and the process-wide allocation activity that
// happened while it was open. Allocation figures are deltas of the
// runtime/metrics counters readHeapAllocs reads, so under concurrency
// they include other goroutines' allocations, and they are quantized:
// the runtime counts a small allocation only when its P's span cache
// refills, so a span that allocates a few KB can read 0 and its
// neighbour the whole refill. Treat them as attribution hints, exact
// only in aggregate and for large (>32 KB) objects.
type SpanRecord struct {
	Name       string
	Start      time.Time
	Wall       time.Duration
	AllocBytes uint64 // delta of /gc/heap/allocs:bytes over the span
	Mallocs    uint64 // delta of heap plus tiny allocated objects over the span
}

// Span is an open timing region. Obtain one from Registry.StartSpan or
// the package-level StartSpan; close it with End. A nil *Span is a valid
// no-op, so callers never need to branch on whether collection is
// enabled.
type Span struct {
	reg             *Registry
	name            string
	start           time.Time
	bytes0, allocs0 uint64
}

// StartSpan opens a span named name against the process-default registry.
// When collection is disabled it returns nil, and the later End is a free
// no-op.
func StartSpan(name string) *Span { return Default().StartSpan(name) }

// StartSpan opens a span recorded into r when ended. A nil registry
// returns a nil (no-op) span.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{reg: r, name: name}
	var s [3]metrics.Sample
	sp.bytes0, sp.allocs0 = readHeapAllocs(s[:])
	sp.start = time.Now()
	return sp
}

// End closes the span and records it. No-op on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	var m [3]metrics.Sample
	bytes1, allocs1 := readHeapAllocs(m[:])
	rec := SpanRecord{
		Name:       s.name,
		Start:      s.start,
		Wall:       wall,
		AllocBytes: bytes1 - s.bytes0,
		Mallocs:    allocs1 - s.allocs0,
	}
	s.reg.spanMu.Lock()
	if s.reg.spanCap > 0 && len(s.reg.spans) >= s.reg.spanCap {
		// Ring overwrite: drop the oldest span so a long-lived process
		// keeps the newest spanCap records in bounded memory.
		s.reg.spans[s.reg.spanHead] = rec
		s.reg.spanHead = (s.reg.spanHead + 1) % s.reg.spanCap
		s.reg.spanDropped++
	} else {
		s.reg.spans = append(s.reg.spans, rec)
	}
	s.reg.spanMu.Unlock()
}

// heapAllocMetrics are the counters behind every allocation figure: bytes,
// then two object counts whose sum is MemStats.Mallocs's own definition.
var heapAllocMetrics = [3]string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects"}

// readHeapAllocs reads the first len(s) of heapAllocMetrics into s (1 for
// bytes alone, 3 for bytes and objects) and returns the cumulative bytes
// and allocated objects. Unlike runtime.ReadMemStats it does not stop the
// world. s escapes to metrics.Read, so each call heap-allocates the
// caller's sample array (48 bytes a sample).
func readHeapAllocs(s []metrics.Sample) (bytes, allocs uint64) {
	for i := range s {
		s[i].Name = heapAllocMetrics[i]
	}
	metrics.Read(s)
	for _, x := range s[1:] {
		allocs += x.Value.Uint64()
	}
	return s[0].Value.Uint64(), allocs
}
