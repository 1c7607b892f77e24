// Package obs is the repository's lightweight, dependency-free
// observability layer: a metrics registry of atomic counters, gauges, and
// fixed-bucket histograms, plus one span type. A trace (trace.go) is a
// bounded span tree for one unit of work: a served request, or one
// experiment of a CLI suite run (exp.RunSuite opens it and exp.RunOne
// records the experiment's span in it). Spans take wall-clock from
// time.Now and allocation deltas from runtime/metrics, so none stops the
// world. The CLI reads its run traces to print timing tables and writes
// them, with a registry snapshot, as a machine-readable NDJSON dump.
//
// Instrumentation is zero-cost when disabled: every instrument method has
// a nil receiver fast path, and a nil *Registry hands out nil instruments,
// so packages can unconditionally write
//
//	ctr := obs.Default().Counter("cachesim.accesses") // nil when disabled
//	ctr.Inc()                                         // no-op on nil
//
// without branching on whether metrics collection is on. The disabled
// path performs no allocations (see bench_test.go).
//
// The process-default registry is nil until a caller (normally the
// bandwall CLI, behind -metrics/-timings/-verbose) installs one with
// SetDefault. Hot paths should fetch instruments once — at construction
// or function entry — and reuse them.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// NOT usable; obtain counters from a Registry. A nil *Counter is a valid
// no-op sink.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 level. A nil *Gauge is a valid
// no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored level (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Exemplar links one observed value to the trace that produced it, so a
// histogram's slow buckets can point at concrete requests to inspect.
type Exemplar struct {
	Label string  // trace ID (or any caller-chosen reference)
	Value float64 // the observed value
}

// Histogram is a fixed-bucket histogram with inclusive upper bounds plus
// an implicit +Inf overflow bucket. A nil *Histogram is a valid no-op
// sink. Observations are lock-free atomic increments. Each bucket
// additionally retains the most recent exemplar observed into it (when
// recorded via ObserveEx), so the slowest bucket always names a culprit.
type Histogram struct {
	bounds  []float64 // sorted ascending; bucket i holds v <= bounds[i]
	counts  []atomic.Uint64
	exs     []atomic.Pointer[Exemplar]
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records v into its bucket. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) { h.ObserveEx(v, "") }

// ObserveEx is Observe plus an exemplar: the bucket v lands in remembers
// label as a recent witness. Exemplar stores are decimated — the first
// observation in a bucket and every 16th after that — so rare (slow)
// buckets name a trace immediately while hot buckets don't pay an
// allocation per observation. No-op on a nil receiver; an empty label
// degrades to a plain Observe.
func (h *Histogram) ObserveEx(v float64, label string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	n := h.counts[i].Add(1)
	if label != "" && (n-1)&15 == 0 {
		h.exs[i].Store(&Exemplar{Label: label, Value: v})
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry owns a namespace of instruments. All methods are safe for
// concurrent use, and all lookup methods are safe on a nil receiver (they
// return nil instruments, completing the no-op chain).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// SetSpanCap does nothing: the registry keeps no spans, and each trace
// caps its own at maxTraceSpans. It remains only because perfbench,
// which builds against this module, still calls it.
func (*Registry) SetSpanCap(int) {}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter, or nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the named histogram, or nil on a
// nil registry. bounds are inclusive upper bucket bounds; they must be
// sorted ascending and are copied. If the name already exists the
// existing histogram is returned and bounds are ignored, so concurrent
// registrations of one name must agree on bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h = &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		exs:    make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// defaultReg holds the process-default registry; nil means disabled.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs r as the process-default registry. Passing nil
// disables collection. Intended to be called once per run by the CLI
// before any instrumented work starts.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Default returns the process-default registry, or nil when collection is
// disabled. The nil result is safe to use directly: all its lookup
// methods return nil no-op instruments.
func Default() *Registry { return defaultReg.Load() }

// Snapshot is a point-in-time, sorted copy of a registry's contents,
// suitable for rendering or JSON encoding.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// Bucket is one histogram bucket: the count of observations v <= LE that
// fell in no earlier bucket. The overflow bucket has LE = +Inf. Exemplar,
// when non-nil, is the most recent traced observation in the bucket.
type Bucket struct {
	LE       float64
	Count    uint64
	Exemplar *Exemplar
}

// HistogramValue is one histogram's snapshot.
type HistogramValue struct {
	Name    string
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Mean returns Sum/Count, or 0 with no observations.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot copies the registry's current state, instruments sorted by
// name. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:    name,
			Count:   h.count.Load(),
			Sum:     math.Float64frombits(h.sumBits.Load()),
			Buckets: make([]Bucket, len(h.counts)),
		}
		for i := range h.counts {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hv.Buckets[i] = Bucket{LE: le, Count: h.counts[i].Load(), Exemplar: h.exs[i].Load()}
		}
		s.Histograms = append(s.Histograms, hv)
	}
	r.mu.RUnlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
