// Package telemetry provides the runtime observability layer: lock-cheap
// counters, gauges, and fixed-bucket histograms built on sync/atomic,
// plus a Registry that snapshots every registered metric to JSON and
// expvar.
//
// The recording hot path (Counter.Inc, Histogram.Observe, Vec.At) is
// allocation-free and takes no locks, so instrumentation can sit on the
// per-call path of the transport without perturbing latency
// measurements. The Registry mutex guards only registration and
// snapshotting, which are rare.
//
// Every recording method does nothing on a nil receiver, and a vector's
// At returns nil when the vector is nil or the index out of range. A
// bundle (TransportMetrics, SelectorMetrics, …) is a struct of these
// primitives, so a zero bundle records nothing: a component that takes
// an optional bundle substitutes the zero one once, when it is built,
// and its call sites record through the fields without a branch.
//
// Metrics map onto the paper's evaluation metrics (Sec. 4) as their
// live, operational analogues: per-server entry gauges give storage
// cost and load skew (the unfairness input, Eq. 1), the probes-per-
// lookup histogram is the client lookup cost (Sec. 4.2), and the
// achieved-t histogram tracks satisfaction under failures (Sec. 4.4).
// See docs/OPERATIONS.md, "What the metrics measure".
package telemetry

import (
	"expvar"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a caller bug but are not rejected on
// the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations.
// Bucket i counts observations v with v <= bounds[i] (and above
// bounds[i-1]); one overflow bucket counts everything larger than the
// last bound. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []int64 // sorted ascending, immutable after construction
	unit    string  // "ns" for durations, "" for plain values
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// newHistogram builds a histogram with the given bucket upper bounds.
func newHistogram(bounds []int64, unit string) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram requires at least one bucket bound")
	}
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{
		bounds:  b,
		unit:    unit,
		buckets: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the overflow bucket is
	// len(bounds).
	i, j := 0, len(h.bounds)
	for i < j {
		m := int(uint(i+j) >> 1)
		if v <= h.bounds[m] {
			j = m
		} else {
			i = m + 1
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshot copies the histogram state. Buckets are read individually,
// so a snapshot taken concurrently with writers is consistent only once
// the writers quiesce; totals over completed recordings are exact.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Unit:    h.unit,
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]BucketSnapshot, 0, len(h.buckets)),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue // keep snapshots small: empty buckets carry no information
		}
		bound := int64(-1) // -1 marks the overflow bucket
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, BucketSnapshot{UpperBound: bound, Count: n})
	}
	return s
}

// DefaultLatencyBuckets spans 100µs to 5m in roughly 1-2.5-5 steps,
// covering in-process calls (sub-millisecond) through chaos-injected
// delays and whole benchmark runs.
var DefaultLatencyBuckets = []int64{
	int64(100 * time.Microsecond),
	int64(250 * time.Microsecond),
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2500 * time.Microsecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(25 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(250 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2500 * time.Millisecond),
	int64(5 * time.Second),
	int64(10 * time.Second),
	int64(30 * time.Second),
	int64(time.Minute),
	int64(5 * time.Minute),
}

// DefaultCountBuckets suits small-integer distributions: achieved-t,
// probes per lookup, entries per answer.
var DefaultCountBuckets = []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024}

// CounterVec is a dense vector of counters indexed by server id,
// pre-allocated so the hot path never touches a map.
type CounterVec struct {
	cs []Counter
}

// At returns the counter for index i, or nil — which records nothing —
// for an index out of range (e.g. transport.ClientOrigin) or a nil
// vector, so callers on the hot path need no branching of their own.
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.cs) {
		return nil
	}
	return &v.cs[i]
}

// Values returns a copy of the per-index counts.
func (v *CounterVec) Values() []int64 {
	out := make([]int64, len(v.cs))
	for i := range v.cs {
		out[i] = v.cs[i].Value()
	}
	return out
}

// HistogramVec is a dense vector of histograms indexed by server id.
type HistogramVec struct {
	hs []*Histogram
}

// At returns the histogram for index i, or nil when out of range or
// for a nil vector.
func (v *HistogramVec) At(i int) *Histogram {
	if v == nil || i < 0 || i >= len(v.hs) {
		return nil
	}
	return v.hs[i]
}

// Registry names and snapshots a set of metrics. All New* methods panic
// on duplicate names — metric names are static program identifiers, so
// a collision is a programming error, not a runtime condition.
type Registry struct {
	mu sync.Mutex
	// metrics maps each name to its metric: a *Counter, *Gauge,
	// *Histogram, *CounterVec or *HistogramVec, or a gauge function
	// (func() int64, or func() []int64 for a per-server vector).
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// register adds m under name.
func (r *Registry) register(name string, m any) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.metrics[name] = m
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name string) *Counter {
	c := &Counter{}
	r.register(name, c)
	return c
}

// NewGauge registers and returns a settable gauge.
func (r *Registry) NewGauge(name string) *Gauge {
	g := &Gauge{}
	r.register(name, g)
	return g
}

// NewGaugeFunc registers a gauge evaluated at snapshot time (e.g. a
// node's live entry count).
func (r *Registry) NewGaugeFunc(name string, fn func() int64) {
	if fn == nil {
		panic("telemetry: nil gauge func")
	}
	r.register(name, fn)
}

// NewHistogram registers and returns a value histogram with the given
// bucket upper bounds.
func (r *Registry) NewHistogram(name string, bounds []int64) *Histogram {
	h := newHistogram(bounds, "")
	r.register(name, h)
	return h
}

// NewDurationHistogram registers and returns a histogram of durations in
// nanoseconds; snapshots carry unit "ns" so formatters render durations.
func (r *Registry) NewDurationHistogram(name string, bounds []int64) *Histogram {
	h := newHistogram(bounds, "ns")
	r.register(name, h)
	return h
}

// NewCounterVec registers and returns a per-server counter vector of
// length n.
func (r *Registry) NewCounterVec(name string, n int) *CounterVec {
	v := &CounterVec{cs: make([]Counter, n)}
	r.register(name, v)
	return v
}

// NewDurationHistogramVec registers and returns a per-server vector of
// duration histograms.
func (r *Registry) NewDurationHistogramVec(name string, n int, bounds []int64) *HistogramVec {
	v := &HistogramVec{hs: make([]*Histogram, n)}
	for i := range v.hs {
		v.hs[i] = newHistogram(bounds, "ns")
	}
	r.register(name, v)
	return v
}

// NewGaugeVecFunc registers a per-server gauge vector evaluated once per
// snapshot: fn returns the whole vector, so its length follows whatever
// fn reads (a membership change resizes it).
func (r *Registry) NewGaugeVecFunc(name string, fn func() []int64) {
	if fn == nil {
		panic("telemetry: nil gauge vec func")
	}
	r.register(name, fn)
}

// Snapshot captures every registered metric. It is safe to call
// concurrently with recording; counts recorded before the snapshot
// began are always included.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{TakenAt: time.Now().UTC()}
	for name, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			put(&s.Counters, name, m.Value())
		case *Gauge:
			put(&s.Gauges, name, m.Value())
		case func() int64:
			put(&s.Gauges, name, m())
		case *Histogram:
			put(&s.Histograms, name, m.snapshot())
		case *CounterVec:
			put(&s.PerServer, name, m.Values())
		case func() []int64:
			put(&s.PerServer, name, m())
		case *HistogramVec:
			hs := make([]HistogramSnapshot, len(m.hs))
			for i, h := range m.hs {
				hs[i] = h.snapshot()
			}
			put(&s.PerServerHistograms, name, hs)
		}
	}
	return s
}

// put sets (*m)[name], making the map on first use so that a snapshot
// section with no metrics stays nil and is omitted from the JSON.
func put[V any](m *map[string]V, name string, v V) {
	if *m == nil {
		*m = make(map[string]V)
	}
	(*m)[name] = v
}

// expvarPublished tracks names already handed to expvar, which panics
// on duplicates; re-publishing (tests, restarted services in one
// process) is made idempotent instead.
var (
	expvarMu        sync.Mutex
	expvarPublished = make(map[string]bool)
)

// PublishExpvar exposes the registry's snapshot as one expvar variable,
// visible on /debug/vars of any expvar-serving mux. Publishing the same
// name twice (even from different registries) keeps the first binding.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
