package core

import (
	"sync"

	"tota/internal/tuple"
)

// EventType classifies the occurrences the EVENT INTERFACE notifies:
// tuple arrivals/removals in the local space and neighborhood changes.
type EventType int

// Event types.
const (
	// TupleArrived fires when a tuple enters the local space or its
	// stored copy changes (supersede or maintenance adoption).
	TupleArrived EventType = iota + 1
	// TupleRemoved fires when a tuple leaves the local space (delete,
	// retract, or maintenance withdrawal).
	TupleRemoved
	// NeighborAdded fires when a node joins the one-hop neighborhood.
	NeighborAdded
	// NeighborRemoved fires when a node leaves the one-hop neighborhood.
	NeighborRemoved
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case TupleArrived:
		return "tuple-arrived"
	case TupleRemoved:
		return "tuple-removed"
	case NeighborAdded:
		return "neighbor-added"
	case NeighborRemoved:
		return "neighbor-removed"
	default:
		return "unknown-event"
	}
}

// NeighborTupleKind is the kind of the synthesized tuples representing
// neighborhood events, honoring the paper's "any event occurring in TOTA
// can be represented as a tuple": subscriptions select neighbor events
// with ordinary templates over this kind.
const NeighborTupleKind = "tota:neighbor"

// Event is one occurrence delivered to a subscription's reaction.
type Event struct {
	Type EventType
	// Node is the local node the event occurred at.
	Node tuple.NodeID
	// Tuple is the tuple the event is about. For neighbor events it is
	// a synthesized NeighborTupleKind tuple with fields (peer, added).
	Tuple tuple.Tuple
	// Peer is the neighbor involved, for neighbor events.
	Peer tuple.NodeID
}

// Reaction is the callback a subscription associates with matching
// events, the paper's "reaction method". Reactions run outside the
// middleware lock and may freely call back into the node's API.
type Reaction func(Event)

// OncePerTuple wraps a reaction so it fires at most once per tuple id:
// arrival events re-fire on supersedes and maintenance adoptions, which
// responders that inject replies usually want to ignore. The wrapper is
// safe for concurrent use; its memory grows with the number of distinct
// tuples seen.
func OncePerTuple(fn Reaction) Reaction {
	var mu sync.Mutex
	seen := make(map[tuple.ID]struct{})
	return func(ev Event) {
		if ev.Tuple == nil {
			fn(ev)
			return
		}
		id := ev.Tuple.ID()
		mu.Lock()
		if _, dup := seen[id]; dup {
			mu.Unlock()
			return
		}
		seen[id] = struct{}{}
		mu.Unlock()
		fn(ev)
	}
}

// SubID identifies a subscription for Unsubscribe.
type SubID int

type subscription struct {
	id  SubID
	tpl tuple.Template
	fn  Reaction
}

// subscriptions returns the current subscriptions in registration
// order. The slice is copy-on-write — Subscribe and Unsubscribe store a
// new one under n.mu — so it may be read without the lock and never
// changes under its reader.
func (n *Node) subscriptions() []*subscription {
	if p := n.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// effect is one engine decision as it leaves the node: the record a
// Tracer receives and the event reactions receive. A zero Kind or Type
// means that part is absent: no tracer, or no subscription.
type effect struct {
	trace TraceEvent
	ev    Event
}

// effectLocked queues one decision: its trace record, when a tracer is
// installed and tr names a kind, and its event about t, when typ is set
// and a subscription exists. The event carries a clone of t, taken
// under the lock.
func (n *Node) effectLocked(tr TraceEvent, typ EventType, t tuple.Tuple) {
	var e effect
	if tr.Kind != 0 && n.cfg.Tracer != nil {
		tr.Node = n.id
		e.trace = tr
	}
	if typ != 0 && t != nil && len(n.subscriptions()) > 0 {
		if c, err := tuple.DefaultRegistry.Clone(t); err == nil {
			t = c
		}
		e.ev = Event{Type: typ, Node: n.id, Tuple: t}
	}
	if e.trace.Kind == 0 && e.ev.Type == 0 {
		return
	}
	n.effects = append(n.effects, e)
}

// emitNeighborLocked queues a neighborhood event. Its synthesized tuple
// is fresh and stored nowhere, so unlike effectLocked it takes no clone.
func (n *Node) emitNeighborLocked(typ EventType, peer tuple.NodeID) {
	if len(n.subscriptions()) == 0 {
		return
	}
	nt := newNeighborTuple(n.id, peer, typ == NeighborAdded)
	n.effects = append(n.effects, effect{ev: Event{Type: typ, Node: n.id, Tuple: nt, Peer: peer}})
}

// unlock flushes unless batching (see BeginBatch), releases n.mu and
// delivers the effects queued under it: the tracer first sees every
// trace record, in order, then reactions see every event, in order,
// each matched against the subscriptions current when it is delivered. Both run outside the lock and may call back into
// the API; a nested call queues and delivers its own effects. The
// drained buffer is then recycled, so steady-state delivery allocates
// nothing once it has grown to the per-call high-water mark.
func (n *Node) unlock() {
	if !n.batching.Load() {
		n.flushLocked()
	}
	effs := n.effects
	if len(effs) == 0 {
		n.mu.Unlock()
		return
	}
	n.effects = nil
	n.mu.Unlock()
	if tr := n.cfg.Tracer; tr != nil {
		for i := range effs {
			if effs[i].trace.Kind != 0 {
				tr(effs[i].trace)
			}
		}
	}
	for i := range effs {
		ev := effs[i].ev
		if ev.Type == 0 {
			continue
		}
		for _, sub := range n.subscriptions() {
			if sub.tpl.Matches(ev.Tuple) {
				n.stats.Events.Add(1)
				sub.fn(ev)
			}
		}
	}
	clear(effs)
	n.mu.Lock()
	if n.effects == nil {
		n.effects = effs[:0]
	}
	n.mu.Unlock()
}

// neighborTuple is the synthesized tuple for neighborhood events. It is
// local-only: it never propagates and never crosses the wire.
type neighborTuple struct {
	tuple.Base

	c tuple.Content
}

var _ tuple.Tuple = (*neighborTuple)(nil)

func newNeighborTuple(self, peer tuple.NodeID, added bool) *neighborTuple {
	return &neighborTuple{c: tuple.Content{
		tuple.S("peer", string(peer)),
		tuple.B("added", added),
		tuple.S("node", string(self)),
	}}
}

func (n *neighborTuple) Kind() string                    { return NeighborTupleKind }
func (n *neighborTuple) Content() tuple.Content          { return n.c }
func (n *neighborTuple) ShouldStore(*tuple.Ctx) bool     { return false }
func (n *neighborTuple) ShouldPropagate(*tuple.Ctx) bool { return false }
