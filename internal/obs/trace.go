package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"tota/internal/core"
	"tota/internal/tuple"
)

// MultiTracer fans one engine trace stream out to several consumers
// (e.g. a JSONL sink plus a latency tracker). Nil entries are skipped.
func MultiTracer(ts ...core.Tracer) core.Tracer {
	kept := ts[:0]
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return func(ev core.TraceEvent) {
		for _, t := range kept {
			t(ev)
		}
	}
}

// TraceRecord is the JSONL trace schema (one object per line; see
// DESIGN.md §7 for the field contract).
type TraceRecord struct {
	// T is the sink clock reading when the event was enqueued
	// (emulator ticks or Unix seconds, per deployment).
	T float64 `json:"t"`
	// Kind is the engine decision (inject, store, supersede, forward,
	// dup, ttl, adopt, withdraw, retract, expire, suspect, agg-result,
	// send, pull).
	Kind string `json:"kind"`
	// Node is where the decision happened.
	Node string `json:"node"`
	// ID is the tuple id (NODE#SEQ).
	ID string `json:"id"`
	// Tuple is the tuple kind, when known.
	Tuple string `json:"tuple,omitempty"`
	// From is the previous hop for arrival decisions.
	From string `json:"from,omitempty"`
	// Hop is the copy's hop count, when meaningful.
	Hop int `json:"hop,omitempty"`
	// Val is the maintained structure value, when meaningful.
	Val float64 `json:"val,omitempty"`
	// Trace, Span and PSpan carry the causal trace context of sampled
	// tuples as lowercase hex (absent for unsampled events): the
	// tuple's trace id, the span of this node's copy incarnation, and
	// the upstream hop's span that caused it. Hex strings keep uint64
	// identities exact through JSON (float64 numbers would round) and
	// greppable in dumps.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	PSpan string `json:"pspan,omitempty"`
}

// NewTraceRecord converts one engine event into the JSONL schema,
// stamped with t. Shared by the JSONL sink and the flight recorder so
// both emit identical records for the same event.
func NewTraceRecord(t float64, ev core.TraceEvent) TraceRecord {
	return TraceRecord{
		T:     t,
		Kind:  ev.Kind.String(),
		Node:  string(ev.Node),
		ID:    ev.ID.String(),
		Tuple: ev.TupleKind,
		From:  string(ev.From),
		Hop:   ev.Hop,
		Val:   ev.Value,
		Trace: hexID(ev.TraceID),
		Span:  hexID(ev.Span),
		PSpan: hexID(ev.ParentSpan),
	}
}

// hexID formats a span or trace identity; zero (unsampled) renders as
// the empty string so the JSON field is omitted.
func hexID(v uint64) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatUint(v, 16)
}

type stampedEvent struct {
	t  float64
	ev core.TraceEvent
}

// JSONLSink exports engine trace events as JSON lines on a buffered
// background writer. Enqueueing never blocks the engine: when the
// buffer is full the event is dropped and counted (backpressure by
// shedding, not stalling — the middleware must not slow down because an
// exporter is behind).
type JSONLSink struct {
	clock func() float64
	ch    chan stampedEvent

	written *Counter
	dropped *Counter

	done chan struct{}
	werr error

	closeOnce sync.Once
}

// NewJSONLSink starts a sink writing to w, stamping events with clock
// (nil means "always 0"; pass emulator time or wall-clock seconds).
// depth bounds the in-flight buffer (<=0 selects 4096). The sink's
// written/dropped counters are registered on reg when non-nil.
func NewJSONLSink(w io.Writer, reg *Registry, clock func() float64, depth int) *JSONLSink {
	if depth <= 0 {
		depth = 4096
	}
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	s := &JSONLSink{
		clock: clock,
		ch:    make(chan stampedEvent, depth),
		done:  make(chan struct{}),
	}
	if reg != nil {
		s.written = reg.Counter("tota_trace_events_total", "Trace events exported as JSONL.")
		s.dropped = reg.Counter("tota_trace_dropped_total", "Trace events dropped because the export buffer was full.")
	} else {
		s.written = &Counter{}
		s.dropped = &Counter{}
	}
	go s.writeLoop(w)
	return s
}

func (s *JSONLSink) writeLoop(w io.Writer) {
	defer close(s.done)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for se := range s.ch {
		rec := NewTraceRecord(se.t, se.ev)
		if err := enc.Encode(rec); err != nil {
			if s.werr == nil {
				s.werr = err
			}
			continue
		}
		s.written.Inc()
		// Flush whenever the buffer drains so a live tail of the file
		// sees events promptly; under sustained load the channel stays
		// non-empty and writes keep batching.
		if len(s.ch) == 0 {
			if err := bw.Flush(); err != nil && s.werr == nil {
				s.werr = err
			}
		}
	}
	if err := bw.Flush(); err != nil && s.werr == nil {
		s.werr = err
	}
}

// Tracer returns the core.Tracer feeding this sink.
func (s *JSONLSink) Tracer() core.Tracer {
	return func(ev core.TraceEvent) {
		select {
		case s.ch <- stampedEvent{t: s.clock(), ev: ev}:
		default:
			s.dropped.Inc()
		}
	}
}

// Dropped returns the number of shed events.
func (s *JSONLSink) Dropped() int64 { return s.dropped.Value() }

// Written returns the number of exported events.
func (s *JSONLSink) Written() int64 { return s.written.Value() }

// Close drains the buffer, flushes the writer and returns the first
// write error, if any. The sink must not be fed after Close.
func (s *JSONLSink) Close() error {
	s.closeOnce.Do(func() { close(s.ch) })
	<-s.done
	return s.werr
}

// maxTrackedIDs bounds each of the latency tracker's per-tuple tables
// so a long-lived node cannot grow them without bound (see idClock);
// injections evicted from a full table are counted in Untracked.
const maxTrackedIDs = 4096

// idClock maps tuple ids to clock readings. It holds the ids of its
// last maxTrackedIDs puts that were not deleted since, in a ring in
// put order, so a put evicts the oldest id still held once the ring is
// full: a long-lived node keeps tracking its newest ids.
type idClock struct {
	slot map[tuple.ID]int32 // id → its ring slot
	ring []idStamp          // grows to maxTrackedIDs, then wraps; a deleted id leaves a zero id
	next int                // the slot the next put takes once the ring is full
}

type idStamp struct {
	id tuple.ID
	t  float64
}

func newIDClock() idClock { return idClock{slot: make(map[tuple.ID]int32)} }

func (c *idClock) get(id tuple.ID) (float64, bool) {
	i, ok := c.slot[id]
	if !ok {
		return 0, false
	}
	return c.ring[i].t, true
}

// put records t for id as its newest entry, returning the id it
// evicted, if any.
func (c *idClock) put(id tuple.ID, t float64) (evicted tuple.ID, ok bool) {
	c.del(id)
	i, turned := len(c.ring), false
	if i < maxTrackedIDs {
		c.ring = append(c.ring, idStamp{})
	} else {
		i, c.next = c.next, (c.next+1)%maxTrackedIDs
		turned = c.next == 0
		if evicted = c.ring[i].id; !evicted.IsZero() {
			delete(c.slot, evicted)
			ok = true
		}
	}
	c.ring[i] = idStamp{id: id, t: t}
	c.slot[id] = int32(i)
	if turned {
		// Re-index once a turn: a Go map keeps the tombstones deletes
		// leave until they make it grow, and clear drops them.
		clear(c.slot)
		for j, s := range c.ring {
			if !s.id.IsZero() {
				c.slot[s.id] = int32(j)
			}
		}
	}
	return evicted, ok
}

func (c *idClock) del(id tuple.ID) {
	if i, ok := c.slot[id]; ok {
		c.ring[i].id = tuple.ID{}
		delete(c.slot, id)
	}
}

func (c *idClock) reset() {
	clear(c.slot)
	c.ring, c.next = c.ring[:0], 0
}

// Latencies derives the two headline middleware latencies from the
// trace stream:
//
//   - Propagation: inject → first store of the same tuple at each other
//     node (how fast a structure spreads).
//   - Repair: disturbance → next maintenance adoption. A disturbance is
//     either a withdrawal of a specific structure (per-id) or an
//     external topology-churn mark (MarkChurn, sampled once by the
//     first adoption that follows).
//   - QueryResult: query inject → the source's first convergecast
//     result for that query (how long a fresh aggregation query takes
//     to produce its first answer).
//
// All methods are safe for concurrent use: a real node traces from its
// UDP receive and refresh-ticker goroutines at once. The tracker takes
// one small mutex per traced event, which is off the packet fast path
// (events only fire on state changes).
type Latencies struct {
	clock func() float64
	reg   *Registry // nil: nothing is exposed

	published sync.Once // Propagation is on reg

	mu        sync.Mutex
	injected  idClock
	disturbed idClock
	resulted  map[tuple.ID]bool // a subset of injected's ids
	churnAt   float64
	churnSet  bool

	// Propagation is the inject→store latency histogram. It joins the
	// registry at its first sample: only a tracer that saw a tuple's
	// inject and its store at another node can sample it, which is a
	// tracer spanning nodes (the emulator, E1). A real node's tracer
	// sees its own injects only, so tota-node never exposes
	// tota_propagation_latency, a family it could not fill.
	Propagation *Histogram
	// Repair is the disturbance→adopt latency histogram.
	Repair *Histogram
	// QueryResult is the inject→first-result latency histogram for
	// aggregation queries.
	QueryResult *Histogram
	// Untracked counts injections evicted from the full tracking table
	// before their tuple ended.
	Untracked *Counter
}

// NewLatencies builds a latency tracker with the given clock and bucket
// bounds (RoundBuckets suits tick-based emulation), registering its
// histograms on reg when non-nil (Propagation at its first sample).
func NewLatencies(reg *Registry, clock func() float64, buckets []float64) *Latencies {
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	l := &Latencies{
		clock:       clock,
		reg:         reg,
		injected:    newIDClock(),
		disturbed:   newIDClock(),
		resulted:    make(map[tuple.ID]bool),
		Propagation: NewHistogram(buckets),
	}
	if reg != nil {
		l.Repair = reg.Histogram("tota_repair_latency", "Disturbance-to-adoption latency, in clock units.", buckets)
		l.QueryResult = reg.Histogram("tota_query_result_latency", "Query inject-to-first-result latency, in clock units.", buckets)
		l.Untracked = reg.Counter("tota_latency_untracked_total", "Injections evicted, oldest first, from the full latency id table.")
	} else {
		l.Repair = NewHistogram(buckets)
		l.QueryResult = NewHistogram(buckets)
		l.Untracked = &Counter{}
	}
	return l
}

// publish puts Propagation on the registry.
func (l *Latencies) publish() {
	if l.reg != nil {
		l.reg.register(&metric{name: "tota_propagation_latency", help: "Inject-to-store latency per (tuple, node), in clock units.",
			typ: typeHistogram, hist: l.Propagation})
	}
}

// Reset clears the in-flight tracking state (pending injections,
// disturbances and churn marks) while keeping the histograms. Callers
// running repeated trials use it between runs so stale ids from one
// trial cannot pollute the next one's samples.
func (l *Latencies) Reset() {
	l.mu.Lock()
	l.injected.reset()
	l.disturbed.reset()
	clear(l.resulted)
	l.churnSet = false
	l.mu.Unlock()
}

// MarkChurn records an external disturbance (topology change); the next
// maintenance adoption anywhere samples the repair latency against it.
func (l *Latencies) MarkChurn() {
	now := l.clock()
	l.mu.Lock()
	l.churnAt = now
	l.churnSet = true
	l.mu.Unlock()
}

// Tracer returns the core.Tracer feeding this tracker.
func (l *Latencies) Tracer() core.Tracer {
	return func(ev core.TraceEvent) {
		switch ev.Kind {
		case core.TraceInject:
			now := l.clock()
			l.mu.Lock()
			if old, evicted := l.injected.put(ev.ID, now); evicted {
				delete(l.resulted, old)
				l.Untracked.Inc()
			}
			l.mu.Unlock()
		case core.TraceStore:
			now := l.clock()
			l.mu.Lock()
			t0, ok := l.injected.get(ev.ID)
			d, disturbed := l.disturbed.get(ev.ID)
			if disturbed {
				l.disturbed.del(ev.ID)
			}
			l.mu.Unlock()
			// A re-store after a withdrawal is a repair, not propagation.
			if disturbed {
				l.Repair.Observe(now - d)
			} else if ok && ev.Node != ev.ID.Node {
				l.published.Do(l.publish)
				l.Propagation.Observe(now - t0)
			}
		case core.TraceAdopt:
			now := l.clock()
			l.mu.Lock()
			d, disturbed := l.disturbed.get(ev.ID)
			if disturbed {
				l.disturbed.del(ev.ID)
			}
			churned := l.churnSet
			c := l.churnAt
			l.churnSet = false
			l.mu.Unlock()
			switch {
			case disturbed:
				l.Repair.Observe(now - d)
			case churned:
				l.Repair.Observe(now - c)
			}
		case core.TraceWithdraw:
			now := l.clock()
			l.mu.Lock()
			if _, ok := l.disturbed.get(ev.ID); !ok {
				l.disturbed.put(ev.ID, now)
			}
			l.mu.Unlock()
		case core.TraceAggResult:
			now := l.clock()
			l.mu.Lock()
			t0, ok := l.injected.get(ev.ID)
			first := ok && !l.resulted[ev.ID]
			if first {
				l.resulted[ev.ID] = true
			}
			l.mu.Unlock()
			// Only the first result samples the histogram: later epochs
			// re-report continuously and would swamp it with zeros. The
			// injected entry stays live so propagation tracking of the
			// query tuple itself is unaffected.
			if first {
				l.QueryResult.Observe(now - t0)
			}
		case core.TraceRetract, core.TraceExpire:
			l.mu.Lock()
			l.injected.del(ev.ID)
			l.disturbed.del(ev.ID)
			delete(l.resulted, ev.ID)
			l.mu.Unlock()
		}
	}
}
