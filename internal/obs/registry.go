// Package obs is the middleware's telemetry subsystem: a lock-light
// metrics registry (atomic counters, gauges and bounded histograms), a
// Prometheus/JSON exposition layer with an embedded HTTP server, and a
// structured trace pipeline built on core.Tracer (buffered JSONL export
// plus trace-derived propagation- and repair-latency histograms).
//
// Design constraints (see DESIGN.md §7):
//
//   - Zero cost on the packet hot path. Instruments are plain atomics;
//     registration happens once at startup; exposition walks the
//     registry only when scraped. Components that keep their own
//     counters (core.Node, transport.Sim, udp.Transport, the gateway)
//     declare each one as a tagged Stats field, and RegisterStats
//     exposes them through *Func instruments that snapshot at collect
//     time, so the hot path is untouched.
//   - No third-party dependencies: the Prometheus text format is tiny
//     and written by hand.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant metric dimension, attached at registration.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing metric. The zero value is
// usable, but counters are normally created through Registry.Counter so
// they are exposed.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter
// monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: Observe is a couple of atomic
// adds, quantiles are estimated from the bucket counts by linear
// interpolation. Bounds are upper bucket edges; a +Inf bucket is
// implicit.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, cumulative at expose time
	count  atomic.Int64
	sum    Gauge
}

// NewHistogram builds an unregistered histogram with the given sorted
// upper bucket bounds (use Registry.Histogram for an exposed one).
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sample total.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Mean returns the sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// inside the bucket holding the target rank. Samples beyond the last
// finite bound report that bound (the histogram cannot see further).
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo, hi := 0.0, 0.0
		switch {
		case i == len(h.bounds): // +Inf bucket
			if len(h.bounds) == 0 {
				return h.Mean()
			}
			return h.bounds[len(h.bounds)-1]
		case i == 0:
			lo, hi = 0, h.bounds[0]
		default:
			lo, hi = h.bounds[i-1], h.bounds[i]
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n exponential bucket bounds starting at start and
// growing by factor (Prometheus-style).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// LinearBuckets returns n linear bucket bounds starting at start with
// the given width.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, start+float64(i)*width)
	}
	return out
}

// RoundBuckets are histogram bounds suitable for latencies measured in
// radio rounds / emulator ticks (1 … 512, roughly geometric).
var RoundBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}

type metricType int

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
	typeCounterFunc
	typeGaugeFunc
)

// metric is one registered instrument plus its exposition metadata.
type metric struct {
	name   string
	help   string
	labels string // pre-rendered {k="v",...} or ""
	typ    metricType

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry holds registered instruments. Registration takes a mutex;
// instrument updates are lock-free; exposition snapshots under a read
// lock.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register adds m unless an instrument with the same name+labels
// already exists, in which case the existing one is returned.
func (r *Registry) register(m *metric) *metric {
	key := m.name + m.labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[key]; ok {
		return old
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{
		name: name, help: help, labels: renderLabels(labels),
		typ: typeCounter, counter: &Counter{},
	})
	return m.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(&metric{
		name: name, help: help, labels: renderLabels(labels),
		typ: typeGauge, gauge: &Gauge{},
	})
	return m.gauge
}

// Histogram registers (or returns the existing) histogram with the
// given upper bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	m := r.register(&metric{
		name: name, help: help, labels: renderLabels(labels),
		typ: typeHistogram, hist: NewHistogram(bounds),
	})
	return m.hist
}

// CounterFunc registers a counter whose value is read from fn at
// collect time — the zero-hot-path bridge for components that already
// keep their own atomic counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{
		name: name, help: help, labels: renderLabels(labels),
		typ: typeCounterFunc, fn: fn,
	})
}

// GaugeFunc registers a gauge read from fn at collect time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{
		name: name, help: help, labels: renderLabels(labels),
		typ: typeGaugeFunc, fn: fn,
	})
}
