// Package obs is the music data manager's zero-dependency observability
// layer: atomic counters, log₂-bucketed histograms, and a ring-buffer
// event tracer, collected in a Registry that every engine layer
// (storage, wal, txn, quel, mdm) reports into.
//
// §5.2 of the paper frames sort-order maintenance and ordered retrieval
// as the key performance questions of hierarchically ordered music data;
// this package exists so those costs can be *seen* — per-operator row
// counts, lock-wait and fsync latencies, checkpoint durations — instead
// of guessed at.  The instrumentation points threaded through the engine
// are the fixed seams against which later performance work (caching,
// sort-order maintenance) is judged.
//
// Metric naming convention: dot-separated "layer.object.measure", e.g.
// "wal.fsync.ns" or "txn.lock.wait.ns".  Histograms of durations are
// always in nanoseconds and suffixed ".ns"; plain counters have no unit
// suffix unless they count bytes (".bytes").  The full set of names is
// documented in DESIGN.md's Observability section.
//
// All hot-path operations (Counter.Add, Histogram.Observe) are single
// atomic updates; registries hand out stable *Counter/*Histogram handles
// that callers resolve once and keep.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous level: active connections, queued requests,
// pool occupancy.  Unlike a Counter it moves both ways.  A nil *Gauge
// is a valid no-op.
type Gauge struct {
	n atomic.Int64
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.n.Add(d)
	}
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Set replaces the gauge's level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.n.Store(v)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// nBuckets covers values 0..2^62 in power-of-two buckets: bucket i holds
// observations v with 2^(i-1) < v ≤ 2^i (bucket 0 holds v ≤ 1).  For
// nanosecond durations that spans sub-nanosecond to ~146 years.
const nBuckets = 63

// Histogram is a lock-free power-of-two-bucket histogram with count,
// sum, min, and max.  Observations are non-negative int64s (negative
// values clamp to zero).  Construct via Registry.Histogram or
// NewHistogram (min starts at MaxInt64 and is meaningful only once
// Count is nonzero).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [nBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram ready for observations.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(1)<<62 - 1)
	return h
}

// bucketOf returns the bucket index for v: ceil(log2(v)) clamped.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2 v) for v ≥ 2
	if b >= nBuckets {
		return nBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		old := h.min.Load()
		if old <= v || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old >= v || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper-bound estimate of the q'th quantile
// (0 ≤ q ≤ 1) from the bucket boundaries: the top of the bucket the
// quantile falls in.  Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i := 0; i < nBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > target {
			if i == 0 {
				return 1
			}
			return int64(1) << i
		}
	}
	return h.max.Load()
}

// metric is the union stored in a registry.
type metric struct {
	counter *Counter
	histo   *Histogram
	gauge   *Gauge
}

// Registry is a named collection of metrics plus the event tracer.
// Metric handles are created on first use and stable thereafter; a nil
// *Registry is a valid no-op sink (its handles are nil and their
// methods do nothing), so unobserved components pay almost nothing.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	trace   Trace
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Counter returns the named counter, creating it if needed.  Returns
// nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.counter // nil if the name is a histogram; callers keep kinds straight
	}
	c := &Counter{}
	r.metrics[name] = metric{counter: c}
	return c
}

// Histogram returns the named histogram, creating it if needed.
// Returns nil (a valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.histo
	}
	h := NewHistogram()
	r.metrics[name] = metric{histo: h}
	return h
}

// Gauge returns the named gauge, creating it if needed.  Returns nil
// (a valid no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.gauge
	}
	g := &Gauge{}
	r.metrics[name] = metric{gauge: g}
	return g
}

// Trace returns the registry's event tracer (nil on a nil registry).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return &r.trace
}

// Bucket is one non-empty histogram bucket in a snapshot: N observations
// with value ≤ Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le int64  `json:"le"`
	N  uint64 `json:"n"`
}

// Metric is one metric's state in a snapshot.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge", or "histogram"

	// Counter state.
	Value uint64 `json:"value,omitempty"`

	// Gauge state (signed: levels can be drained below a sampling race's
	// zero and still render meaningfully).
	Level int64 `json:"level,omitempty"`

	// Histogram state.
	Count   uint64   `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Min     int64    `json:"min,omitempty"`
	Max     int64    `json:"max,omitempty"`
	P50     int64    `json:"p50,omitempty"`
	P99     int64    `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns the state of every metric, sorted by name.  It is a
// consistent-enough point-in-time read for monitoring (individual
// metrics are read atomically; the set is not globally atomic).
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	byName := make(map[string]metric, len(r.metrics))
	for n, m := range r.metrics {
		byName[n] = m
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]Metric, 0, len(names))
	for _, n := range names {
		m := byName[n]
		switch {
		case m.counter != nil:
			out = append(out, Metric{Name: n, Kind: "counter", Value: m.counter.Value()})
		case m.gauge != nil:
			out = append(out, Metric{Name: n, Kind: "gauge", Level: m.gauge.Value()})
		case m.histo != nil:
			h := m.histo
			s := Metric{
				Name: n, Kind: "histogram",
				Count: h.Count(), Sum: h.Sum(),
				P50: h.Quantile(0.50), P99: h.Quantile(0.99),
			}
			if s.Count > 0 {
				s.Min = h.min.Load()
				s.Max = h.max.Load()
			}
			for i := 0; i < nBuckets; i++ {
				if c := h.buckets[i].Load(); c > 0 {
					s.Buckets = append(s.Buckets, Bucket{Le: int64(1) << i, N: c})
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// Get returns the snapshot of one metric by name.
func (r *Registry) Get(name string) (Metric, bool) {
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
