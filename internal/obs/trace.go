package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. A Trace is a bounded span tree for ONE unit of work: an HTTP
// request, or one experiment of a CLI suite run. Stages open child spans
// via a context-propagated handle, each recording its wall-clock duration
// and the process-wide heap-allocation delta while it was open. A Trace
// is cheap enough to be always-on in a server hot path: span start/end
// cost two time.Now calls and one short mutex'd append, and the first few
// spans are carved from an arena inside the Trace itself.
// Allocation deltas are opt-in per trace (the serve front samples one
// request in allocSampleEvery, a CLI run every experiment), because each
// costs a runtime/metrics read per span end (a few hundred ns, no heap
// allocation; the start value reuses the trace's most recent sample, so
// allocation between spans is attributed to the next span and sequential
// stage spans tile the trace). The trace total follows the same rule: it
// is read at NewTrace and Finish on sampled traces only, and reads 0 on
// the rest. The deltas include other goroutines' allocations and are
// quantized: the runtime counts a small allocation only when its P's
// span cache refills, so a span that allocated 480 B read 0 in 186 of
// 200 trials (mean 569 B). The span list is capped so a pathological
// request cannot balloon memory.
//
// Propagation is by context:
//
//	ctx = obs.WithTrace(ctx, tr)             // install at the request root
//	ctx, sp := obs.StartTraceSpan(ctx, "parse")
//	defer sp.End()                           // nil-safe: no trace → no-op
//
// Spans started from a context that already carries an open span become
// its children, so handler → engine → solver hooks compose into a tree
// without any layer knowing about the others.

// maxTraceSpans bounds the spans recorded per trace; further spans are
// counted in Dropped instead of retained.
const maxTraceSpans = 256

// allocSampleEvery is the serve front's allocation sampling rate: one
// request trace in this many records alloc_bytes on its root and its
// spans (the rest record 0 there and skip every runtime/metrics read).
const allocSampleEvery = 8

// traceSeed randomizes trace IDs across process restarts; traceSeq makes
// them unique within one process; allocSample drives SampleAllocs.
var (
	traceSeed   uint64
	traceSeq    atomic.Uint64
	allocSample atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		traceSeed = binary.LittleEndian.Uint64(b[:])
	}
}

// NewTraceID returns a 16-hex-digit request identifier: a splitmix64
// finalizer over (process seed + sequence), so IDs are unique within a
// process and effectively unique across restarts, without per-call
// crypto/rand cost.
func NewTraceID() string {
	v := traceSeed + traceSeq.Add(1)*0x9E3779B97F4A7C15
	v ^= v >> 30
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 27
	v *= 0x94D049BB133111EB
	v ^= v >> 31
	var b [16]byte
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = hex[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// SampleAllocs reports whether the next request trace should sample
// allocations: true for one call in allocSampleEvery.
func SampleAllocs() bool { return allocSample.Add(1)%allocSampleEvery == 1 }

// samplePool recycles the sample heapAllocBytes passes to metrics.Read.
// The slice escapes there, so an array on the caller's stack would cost
// one heap allocation per read.
var samplePool = sync.Pool{New: func() any {
	return &[1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
}}

// heapAllocBytes reads the cumulative heap-allocation bytes counter.
// Unlike runtime.ReadMemStats it does not stop the world, and it
// allocates nothing once samplePool is warm.
func heapAllocBytes() uint64 {
	s := samplePool.Get().(*[1]metrics.Sample)
	metrics.Read(s[:])
	b := s[0].Value.Uint64()
	samplePool.Put(s)
	return b
}

// TraceSpanRecord is one completed span within a trace. Parent 0 is the
// request root; span IDs start at 1 in start order.
type TraceSpanRecord struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"` // offset from the trace start
	WallNS     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"` // process-wide heap-alloc delta over the span
}

// TraceRecord is a completed, immutable trace: the root's timing plus the
// recorded span tree and any key=value attributes stages attached.
type TraceRecord struct {
	ID         string            `json:"id"`
	Route      string            `json:"route"`
	Status     int               `json:"status"`
	Start      time.Time         `json:"start"`
	Wall       time.Duration     `json:"-"`
	WallNS     int64             `json:"wall_ns"`
	AllocBytes uint64            `json:"alloc_bytes"` // 0 unless the trace samples allocations
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []TraceSpanRecord `json:"spans"`
	Dropped    int               `json:"dropped,omitempty"` // spans beyond the cap
}

// Trace is one live unit of work's span collector. Create with NewTrace,
// propagate with WithTrace, and close with Finish. All methods are safe
// for concurrent use (engine worker pools record spans from many
// goroutines) and safe on a nil receiver.
type Trace struct {
	id          string
	route       string
	start       time.Time
	a0          uint64
	allocDetail bool // this trace samples alloc deltas, its own and its spans'

	// nextID hands out span IDs; lastAlloc caches the most recent
	// heap-alloc counter read so span starts don't pay a metrics read.
	nextID    atomic.Int64
	lastAlloc atomic.Uint64

	// slots is an arena for the first spans, so a typical request
	// (≤8 stages) records its whole tree without per-span allocation.
	slots [8]TraceSpan

	mu      sync.Mutex
	spans   []TraceSpanRecord
	attrs   map[string]string
	dropped int
}

// NewTrace starts a trace for one unit of work on the named route.
// sampleAllocs makes the trace and its spans record allocation deltas.
func NewTrace(id, route string, sampleAllocs bool) *Trace {
	t := &Trace{
		id:          id,
		route:       route,
		start:       time.Now(),
		allocDetail: sampleAllocs,
		spans:       make([]TraceSpanRecord, 0, 8),
	}
	if t.allocDetail {
		t.a0 = heapAllocBytes()
		t.lastAlloc.Store(t.a0)
	}
	return t
}

// ID returns the trace identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetAttr attaches a key=value annotation (cache disposition, shared
// flag, …) surfaced in the finished record. No-op on nil.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = make(map[string]string, 4)
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// Finish closes the trace with the request's final HTTP status (0 for a
// CLI run, whose Outcome says how it ended) and returns the immutable
// record. Nil receiver returns nil.
func (t *Trace) Finish(status int) *TraceRecord {
	if t == nil {
		return nil
	}
	wall := time.Since(t.start)
	var alloc uint64
	if t.allocDetail {
		alloc = heapAllocBytes() - t.a0
	}
	t.mu.Lock()
	rec := &TraceRecord{
		ID:         t.id,
		Route:      t.route,
		Status:     status,
		Start:      t.start,
		Wall:       wall,
		WallNS:     wall.Nanoseconds(),
		AllocBytes: alloc,
		Attrs:      t.attrs,
		Spans:      t.spans,
		Dropped:    t.dropped,
	}
	t.mu.Unlock()
	return rec
}

// traceKey and spanKey are the context keys for propagation.
type (
	traceKey struct{}
	spanKey  struct{}
)

// WithTrace installs tr as ctx's trace.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns ctx's trace, or nil when the request is untraced.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// TraceSpan is one open stage of a trace. End it exactly once; a nil
// *TraceSpan is a valid no-op (untraced contexts yield nil spans).
type TraceSpan struct {
	tr     *Trace
	id     int
	parent int
	name   string
	start  time.Time
	a0     uint64
}

// startSpan opens a span under ctx's trace and current span; nil when
// ctx is untraced. The first few spans of a trace come from its slot
// arena (distinct atomic IDs → distinct slots, so this is race-free).
func startSpan(ctx context.Context, name string) *TraceSpan {
	tr := TraceFrom(ctx)
	if tr == nil {
		return nil
	}
	parent, _ := ctx.Value(spanKey{}).(int)
	id := int(tr.nextID.Add(1))
	var sp *TraceSpan
	if id <= len(tr.slots) {
		sp = &tr.slots[id-1]
	} else {
		sp = new(TraceSpan)
	}
	var a0 uint64
	if tr.allocDetail {
		a0 = tr.lastAlloc.Load()
	}
	*sp = TraceSpan{
		tr:     tr,
		id:     id,
		parent: parent,
		name:   name,
		start:  time.Now(),
		a0:     a0,
	}
	return sp
}

// StartTraceSpan opens a stage span under ctx's trace and current span,
// returning a derived context (so nested stages become children) and the
// span handle. Without a trace in ctx it returns (ctx, nil) at
// near-zero cost, so library layers can instrument unconditionally.
func StartTraceSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	sp := startSpan(ctx, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp.id), sp
}

// StartTraceSpanLeaf is StartTraceSpan for stages that never open child
// spans: it skips deriving a context (one allocation saved per span),
// so use it on hot leaf stages — parse, cache probes, response writes.
func StartTraceSpanLeaf(ctx context.Context, name string) *TraceSpan {
	return startSpan(ctx, name)
}

// End closes the span, recording it into its trace (or counting it as
// dropped past the cap). No-op on nil.
func (s *TraceSpan) End() {
	if s == nil {
		return
	}
	var alloc uint64
	if s.tr.allocDetail {
		alloc = heapAllocBytes()
		s.tr.lastAlloc.Store(alloc)
	}
	rec := TraceSpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		StartNS:    s.start.Sub(s.tr.start).Nanoseconds(),
		WallNS:     time.Since(s.start).Nanoseconds(),
		AllocBytes: alloc - s.a0,
	}
	t := s.tr
	t.mu.Lock()
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, rec)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}
