package tuple

import (
	"tota/internal/space"
)

// LocalStore is the restricted view of a node's local tuple space that
// propagation hooks may use for data-adaptive propagation ("adapting the
// propagation pattern depending on the value of some tuples found in the
// propagation nodes") and for tuple-deleting propagation, which the
// paper suggests as the way to supply distributed deletion.
type LocalStore interface {
	// Read returns the locally stored tuples matching the template.
	Read(Template) []Tuple
	// Delete removes and returns the locally stored tuples matching the
	// template.
	Delete(Template) []Tuple
	// MinValue returns the smallest Value among the stored Maintained
	// tuples of the given kind whose "name" field equals name and which a
	// Read may see, with ok false when there is none. It is how a passing
	// tuple senses a structure (the paper's "follow downhill its
	// hopcount"), and it copies no tuple to answer.
	MinValue(kind, name string) (v float64, ok bool)
}

// Ctx carries the local context in which a propagation hook runs: which
// node the tuple is at, where it came from, how far it has traveled, the
// node's physical position (when a localization device is present) and
// access to the local tuple space.
type Ctx struct {
	// Self is the node evaluating the hook.
	Self NodeID
	// From is the previous hop; it equals Self at the injection node.
	From NodeID
	// Hop is the number of hops traveled from the source along the path
	// this copy of the tuple arrived on (0 at the injection node).
	Hop int
	// Pos is the node's physical position; HasPos reports whether a
	// localization fix is available.
	Pos    space.Point
	HasPos bool
	// Store is the local tuple space (nil in contexts where access is
	// not permitted, e.g. template matching).
	Store LocalStore
}

// Injected reports whether the hook is running at the injection node.
func (c *Ctx) Injected() bool { return c.Hop == 0 && c.From == c.Self }

// Tuple is the TOTA programming model. It mirrors the paper's abstract
// Tuple class: the middleware implements a general-purpose breadth-first,
// expanding-ring propagation, and each concrete tuple customizes it by
// implementing the hook methods. Embed Base to inherit the defaults
// (store everywhere, flood, content unchanged).
//
// The middleware drives the hooks as follows. When a tuple reaches a
// node (by injection or from a neighbor), the node first derives its
// local copy via Evolve, then calls OnArrive once, then ShouldStore to
// decide whether the copy enters the local tuple space, and finally
// ShouldPropagate to decide whether the local copy is re-broadcast to
// the one-hop neighborhood. When a copy of an already-known tuple
// arrives (same ID), Supersedes decides whether the new copy replaces
// the stored one (e.g. a smaller hop-count arriving over a shorter
// path); replacement re-triggers propagation.
//
// A Tuple must be reconstructible from (Kind, ID, Content) via the
// factory registered for its kind: all state that must survive a network
// hop belongs in the Content. By convention, internal parameters are
// stored in trailing fields whose names start with "_" so positional
// template matching over the application-visible prefix is unaffected.
type Tuple interface {
	// Kind names the concrete tuple type in the codec registry.
	Kind() string
	// ID returns the network-wide identity assigned at injection.
	ID() ID
	// SetID is called once by the middleware at injection time.
	SetID(ID)
	// Content returns the tuple's ordered, typed fields.
	Content() Content

	// ShouldStore reports whether the local copy enters this node's
	// tuple space. Non-storing tuples (pure messages) return false on
	// intermediate nodes.
	ShouldStore(ctx *Ctx) bool
	// ShouldPropagate reports whether this node re-broadcasts its local
	// copy to its one-hop neighbors.
	ShouldPropagate(ctx *Ctx) bool
	// Evolve derives the local copy from the copy received from the
	// previous hop (e.g. incrementing a hop counter). Returning nil
	// means "unchanged"; the middleware then uses the received copy.
	// Evolve must not mutate the receiver.
	Evolve(ctx *Ctx) Tuple
	// Supersedes reports whether this (evolved) copy should replace the
	// already-stored copy with the same ID.
	Supersedes(old Tuple) bool
	// OnArrive runs side effects exactly once per node visit (e.g.
	// deleting matching tuples, as the paper's deleting propagation).
	OnArrive(ctx *Ctx)
}

// Expiring is implemented by tuples with a finite lease: a stored copy
// older than Lease (in the caller's logical time units, e.g. emulator
// seconds) is removed by the engine's expiry sweep and its id is
// tombstoned locally, so the copy cannot be re-adopted. Structures
// whose copies expire thus vanish without an explicit retract — the
// way ephemeral context ages out of the network.
type Expiring interface {
	Tuple
	// Lease returns the copy lifetime; zero or negative means the
	// tuple never expires.
	Lease() float64
}

// Injectable is implemented by tuples that must capture local state at
// injection time — typically the source's physical position, which
// spatially-scoped tuples store in their content so every later hop can
// evaluate the distance from the source. OnInject runs exactly once, at
// the injecting node, after the ID is assigned and before any other
// hook; it returns the tuple to proceed with.
type Injectable interface {
	Tuple
	OnInject(ctx *Ctx) Tuple
}

// Maintained is implemented by tuples whose distributed structure the
// middleware keeps coherent under network dynamics (§3: "the distributed
// tuple structure automatically changes to reflect the new topology").
// The canonical example is the hop-count gradient: Value is the field
// the structure is built on, Step the per-hop increment, and MaxValue
// the scope bound beyond which the tuple is not stored.
//
// Content carries Value as the float field ValueField, the only field
// by that name, among the trailing "_" fields. A node that already holds
// the structure reads the value of a later announcement from the bytes
// (see ReadEnvelope) and never builds the tuple.
type Maintained interface {
	Tuple
	// Value returns the structure value carried by this copy.
	Value() float64
	// WithValue returns a copy of the tuple (same ID) carrying value v.
	WithValue(v float64) Tuple
	// Step returns the per-hop increment applied during propagation.
	Step() float64
	// MaxValue returns the largest value the structure may carry
	// (inclusive); copies beyond it are dropped. Use math.Inf(1) for an
	// unbounded structure.
	MaxValue() float64
}

// ValueField names the content field carrying a Maintained tuple's
// Value.
const ValueField = "_val"

// Base supplies the default hook implementations: assignable identity,
// store everywhere, flood the whole network, content unchanged, never
// supersede, no side effects. Concrete tuples embed *Base-style by
// value and override the hooks they need, exactly as the paper's
// subclassing of the abstract Tuple class.
type Base struct {
	id ID
}

// ID implements Tuple.
func (b *Base) ID() ID { return b.id }

// SetID implements Tuple.
func (b *Base) SetID(id ID) { b.id = id }

// ShouldStore implements Tuple; the default stores everywhere.
func (*Base) ShouldStore(*Ctx) bool { return true }

// ShouldPropagate implements Tuple; the default floods the network.
func (*Base) ShouldPropagate(*Ctx) bool { return true }

// Evolve implements Tuple; the default keeps the content unchanged.
func (*Base) Evolve(*Ctx) Tuple { return nil }

// Supersedes implements Tuple; the default ignores duplicate arrivals.
func (*Base) Supersedes(Tuple) bool { return false }

// OnArrive implements Tuple; the default has no side effects.
func (*Base) OnArrive(*Ctx) {}
