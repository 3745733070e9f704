package pattern

import (
	"tota/internal/tuple"
)

// Gradient is the paper's canonical distributed tuple: injected at a
// source, it spreads breadth-first across the network carrying a value
// that grows by StepSize per hop, building a distributed hop-count field
// ("a tuple incrementing one of its fields as it gets propagated
// identifies a structure of space defining the network distances from
// the source"). The middleware keeps the field coherent under topology
// changes (it implements tuple.Maintained).
//
// Content layout: (name, payload..., _val, _step, _scope).
type Gradient struct {
	tuple.Base

	// Name labels the field for template matching.
	Name string
	// Payload carries application data replicated at every node.
	Payload tuple.Content
	// Val is the field value at this copy (0 at the source).
	Val float64
	// StepSize is the per-hop increment (default 1).
	StepSize float64
	// Scope bounds the field: copies whose value would exceed it are
	// not stored (default unbounded).
	Scope float64
	// LeaseTime gives copies a finite lifetime (0 = forever): the
	// structure ages out of the network without an explicit retract.
	LeaseTime float64
}

var (
	_ tuple.Tuple      = (*Gradient)(nil)
	_ tuple.Maintained = (*Gradient)(nil)
	_ tuple.Expiring   = (*Gradient)(nil)
)

// NewGradient creates an unbounded unit-step gradient field.
func NewGradient(name string, payload ...tuple.Field) *Gradient {
	return &Gradient{
		Name:     name,
		Payload:  payload,
		StepSize: 1,
		Scope:    inf(),
	}
}

// Bounded sets the scope (maximum value) and returns the gradient, for
// construction chaining.
func (g *Gradient) Bounded(scope float64) *Gradient {
	g.Scope = scope
	return g
}

// WithStep sets the per-hop increment and returns the gradient.
func (g *Gradient) WithStep(step float64) *Gradient {
	g.StepSize = step
	return g
}

// Expires gives every copy a finite lease and returns the gradient.
func (g *Gradient) Expires(lease float64) *Gradient {
	g.LeaseTime = lease
	return g
}

// Lease implements tuple.Expiring.
func (g *Gradient) Lease() float64 { return g.LeaseTime }

// Hops returns the hop distance from the source this copy represents.
func (g *Gradient) Hops() int {
	s := g.Step()
	return int(g.Val/s + 0.5)
}

// Kind implements tuple.Tuple.
func (g *Gradient) Kind() string { return KindGradient }

// Content implements tuple.Tuple.
func (g *Gradient) Content() tuple.Content {
	return AppContent(g.Name, g.Payload,
		tuple.F(tuple.ValueField, g.Val),
		tuple.F("_step", g.StepSize),
		tuple.F("_scope", g.Scope),
		tuple.F("_lease", g.LeaseTime),
	)
}

// ShouldStore implements tuple.Tuple: copies within scope are stored.
func (g *Gradient) ShouldStore(*tuple.Ctx) bool { return g.Val <= g.Scope }

// ShouldPropagate implements tuple.Tuple: boundary copies (at exactly
// the scope) are stored but not announced further.
func (g *Gradient) ShouldPropagate(*tuple.Ctx) bool { return g.Val+g.Step() <= g.Scope }

// Evolve implements tuple.Tuple, incrementing the value per hop. The
// engine's maintenance path supersedes this for stored structures, but
// the hook keeps the tuple meaningful under plain propagation too.
func (g *Gradient) Evolve(*tuple.Ctx) tuple.Tuple {
	return g.WithValue(g.Val + g.Step())
}

// Supersedes implements tuple.Tuple: smaller values win (shorter path).
func (g *Gradient) Supersedes(old tuple.Tuple) bool {
	og, ok := old.(*Gradient)
	return ok && g.Val < og.Val
}

// Value implements tuple.Maintained.
func (g *Gradient) Value() float64 { return g.Val }

// WithValue implements tuple.Maintained.
func (g *Gradient) WithValue(v float64) tuple.Tuple {
	c := *g
	c.Val = v
	return &c
}

// Step implements tuple.Maintained; non-positive configured steps read
// as 1 so maintenance always terminates.
func (g *Gradient) Step() float64 {
	if g.StepSize <= 0 {
		return 1
	}
	return g.StepSize
}

// MaxValue implements tuple.Maintained.
func (g *Gradient) MaxValue() float64 { return g.Scope }

func decodeGradient(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	g, err := gradientFromContent(c)
	if err != nil {
		return nil, err
	}
	g.SetID(id)
	return g, nil
}

func gradientFromContent(c tuple.Content) (*Gradient, error) {
	app, meta := SplitMeta(c)
	name, payload, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	return &Gradient{
		Name:      name,
		Payload:   payload,
		Val:       MetaFloat(meta, tuple.ValueField, 0),
		StepSize:  MetaFloat(meta, "_step", 1),
		Scope:     MetaFloat(meta, "_scope", inf()),
		LeaseTime: MetaFloat(meta, "_lease", 0),
	}, nil
}

// GradientsAt returns the minimum value among the structure copies of
// the given kind and name in the local space store (nil when the hook
// has no store access), with ok false when none is present. Downhill
// messages and application code use it to sense the field.
func GradientsAt(store tuple.LocalStore, kind, name string) (float64, bool) {
	if store == nil {
		return 0, false
	}
	return store.MinValue(kind, name)
}
