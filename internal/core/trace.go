package core

import (
	"fmt"

	"tota/internal/tuple"
)

// TraceKind classifies engine decisions for tracing.
type TraceKind int

// Trace kinds.
const (
	// TraceInject: a tuple entered the network through the local API.
	TraceInject TraceKind = iota + 1
	// TraceStore: a copy entered the local space.
	TraceStore
	// TraceSupersede: a better copy replaced the stored one.
	TraceSupersede
	// TraceForward: the local copy was re-broadcast.
	TraceForward
	// TraceDup: a duplicate arrival was dropped.
	TraceDup
	// TraceTTL: a copy was dropped for exceeding MaxHops.
	TraceTTL
	// TraceAdopt: maintenance changed the local structure value.
	TraceAdopt
	// TraceWithdraw: maintenance removed an unsupported copy.
	TraceWithdraw
	// TraceRetract: a structure was torn down through this node.
	TraceRetract
	// TraceExpire: a leased copy aged out.
	TraceExpire
	// TraceSuspect: a maintained copy lost support but its withdraw was
	// deferred by the suspicion grace window.
	TraceSuspect
	// TraceAggResult: a query source computed a convergecast result
	// (Value carries the scalar, Hop the epoch).
	TraceAggResult
	// TraceSend: a sampled local copy was announced to the air (From
	// names the unicast destination; empty for broadcasts). Emitted
	// only for traced tuples — paired with the receivers' store/adopt
	// spans it localizes which link swallowed an announcement.
	TraceSend
	// TracePull: this node requested full bytes for a sampled tuple it
	// could not reconstruct from a digest (From is the neighbor being
	// pulled from). Pull bursts concentrated on one link localize
	// asymmetric loss.
	TracePull
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceInject:
		return "inject"
	case TraceStore:
		return "store"
	case TraceSupersede:
		return "supersede"
	case TraceForward:
		return "forward"
	case TraceDup:
		return "dup"
	case TraceTTL:
		return "ttl"
	case TraceAdopt:
		return "adopt"
	case TraceWithdraw:
		return "withdraw"
	case TraceRetract:
		return "retract"
	case TraceExpire:
		return "expire"
	case TraceSuspect:
		return "suspect"
	case TraceAggResult:
		return "agg-result"
	case TraceSend:
		return "send"
	case TracePull:
		return "pull"
	default:
		return "unknown-trace"
	}
}

// TraceEvent is one engine decision.
type TraceEvent struct {
	Kind TraceKind
	// Node is where the decision happened.
	Node tuple.NodeID
	// ID identifies the tuple involved.
	ID tuple.ID
	// TupleKind is the tuple's kind (when known).
	TupleKind string
	// From is the previous hop, when the decision concerns an arrival.
	From tuple.NodeID
	// Hop is the copy's hop count, when meaningful.
	Hop int
	// Value is the maintained structure value, when meaningful.
	Value float64
	// TraceID is the tuple's sampled trace identity; zero when the
	// tuple is not sampled (the common case — sampling is off unless
	// WithTraceSampling enables it).
	TraceID uint64
	// Span identifies this node's copy incarnation at the time of the
	// event; ParentSpan references the upstream hop's span that caused
	// it, when known. Together they stitch per-node events into a
	// cross-node propagation tree.
	Span, ParentSpan uint64
}

// String implements fmt.Stringer.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("%s %s %s", e.Node, e.Kind, e.ID)
	if e.TupleKind != "" {
		s += " (" + e.TupleKind + ")"
	}
	if e.From != "" && e.From != e.Node {
		s += " from " + string(e.From)
	}
	if e.Kind == TraceAdopt || e.Kind == TraceStore {
		s += fmt.Sprintf(" val=%g", e.Value)
	}
	return s
}

// Tracer receives engine decisions. It runs outside the engine lock, in
// the goroutine that triggered the decision, after the triggering call
// completes its state changes; it may call back into the node's API.
type Tracer func(TraceEvent)

// WithTracer installs an engine tracer.
func WithTracer(tr Tracer) Option {
	return optionFunc(func(c *Config) { c.Tracer = tr })
}

// WithTraceSampling sets the fraction of locally injected tuples that
// carry a causal trace context (0 disables tracing, 1 traces every
// tuple). The decision is a deterministic hash threshold on the tuple
// id, so a given tuple is sampled identically across runs. Tuples
// arriving off the air keep whatever sampling decision their source
// made regardless of the local rate.
func WithTraceSampling(rate float64) Option {
	return optionFunc(func(c *Config) { c.TraceSampleRate = rate })
}

// traceLocked queues a trace-only effect for delivery at unlock. No-op
// without a tracer.
func (n *Node) traceLocked(ev TraceEvent) { n.effectLocked(ev, 0, nil) }

// traceSendLocked records a sampled copy's announcement to the air (to
// names a unicast destination, empty for broadcasts). No-op for
// unsampled tuples.
func (n *Node) traceSendLocked(st *tupleState, to tuple.NodeID) {
	if st.traceID == 0 {
		return
	}
	n.traceLocked(TraceEvent{Kind: TraceSend, ID: st.local.ID(), TupleKind: st.local.Kind(), From: to, Hop: int(st.hop),
		TraceID: st.traceID, Span: st.span})
}

// tracePullLocked records an anti-entropy pull for a sampled tuple:
// the node is asking From for content it should have heard on the air.
// Pull bursts concentrated on one directed link are the trace-level
// signature of asymmetric loss. No-op for unsampled tuples.
func (n *Node) tracePullLocked(id tuple.ID, from tuple.NodeID, st *tupleState) {
	if st.traceID == 0 {
		return
	}
	n.traceLocked(TraceEvent{Kind: TracePull, ID: id, From: from,
		TraceID: st.traceID, Span: st.span})
}
