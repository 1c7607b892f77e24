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

// Request-scoped tracing. A Trace is a bounded span tree for ONE unit of
// work (an HTTP request, typically): stages open child spans via a
// context-propagated handle, each recording its wall-clock duration and
// the process-wide heap-allocation delta while it was open. Unlike the
// run-scoped Registry spans (which accumulate for a whole CLI run), a
// Trace is cheap enough to be always-on in a server hot path: span
// start/end cost two time.Now calls and one short mutex'd append, and the
// first few spans are carved from an arena inside the Trace itself.
// Per-span allocation deltas are SAMPLED — one trace in allocSampleEvery
// carries them — because each costs a runtime/metrics read per span end
// (a few hundred ns and one 48-byte heap allocation; the start value
// reuses the trace's most recent sample, so allocation between spans is
// attributed to the next span and sequential stage spans tile the trace).
// The trace total, read on every trace, is quantized like every span's
// (see SpanRecord): a span that allocated 480 B read 0 in 186 of 200
// trials (mean 569 B). The span list is capped so a pathological request
// cannot balloon memory.
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

// DefaultTraceSpanCap bounds the spans recorded per trace; further spans
// are counted in Dropped instead of retained.
const DefaultTraceSpanCap = 256

// allocSampleEvery is the per-span allocation-delta sampling rate: one
// trace in this many records alloc_bytes on its spans (the rest record
// 0 there and skip the runtime/metrics read per span end entirely).
const allocSampleEvery = 8

// traceSeed randomizes trace IDs across process restarts; traceSeq makes
// them unique within one process; allocSample drives the 1-in-N span
// alloc-delta sampling.
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

// heapAllocBytes reads the cumulative heap-allocation bytes counter, the
// one sample a trace's hot path needs.
func heapAllocBytes() uint64 {
	var s [1]metrics.Sample
	b, _ := readHeapAllocs(s[:])
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
	AllocBytes uint64            `json:"alloc_bytes"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []TraceSpanRecord `json:"spans"`
	Dropped    int               `json:"dropped,omitempty"` // spans beyond the cap
}

// Trace is one live request's span collector. Create with NewTrace,
// propagate with WithTrace, and close with Finish. All methods are safe
// for concurrent use (engine worker pools record spans from many
// goroutines) and safe on a nil receiver.
type Trace struct {
	id          string
	route       string
	start       time.Time
	a0          uint64
	allocDetail bool // this trace samples per-span alloc deltas

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
	cap     int
}

// NewTrace starts a trace for one request on the named route. spanCap
// bounds recorded spans; ≤0 means DefaultTraceSpanCap.
func NewTrace(id, route string, spanCap int) *Trace {
	if spanCap <= 0 {
		spanCap = DefaultTraceSpanCap
	}
	t := &Trace{
		id:          id,
		route:       route,
		start:       time.Now(),
		a0:          heapAllocBytes(),
		allocDetail: allocSample.Add(1)%allocSampleEvery == 1,
		cap:         spanCap,
		spans:       make([]TraceSpanRecord, 0, 8),
	}
	t.lastAlloc.Store(t.a0)
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

// Finish closes the trace with the request's final status and returns the
// immutable record. Nil receiver returns nil.
func (t *Trace) Finish(status int) *TraceRecord {
	if t == nil {
		return nil
	}
	wall := time.Since(t.start)
	alloc := heapAllocBytes() - t.a0
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
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, rec)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}
