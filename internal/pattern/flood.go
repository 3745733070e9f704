package pattern

import (
	"tota/internal/tuple"
)

// Flood is the plain dissemination tuple: identical copies stored at
// every node the expanding ring reaches, optionally bounded to TTL hops
// (the expanding-ring "scope of the tuple"). With TTL 0 it floods the
// whole network (still bounded by the engine's MaxHops safety net).
//
// Content layout: (name, payload..., _ttl).
type Flood struct {
	tuple.Base

	Name    string
	Payload tuple.Content
	// TTL is the propagation bound in hops; 0 or negative means
	// unbounded.
	TTL int64
	// LeaseTime is the copy lifetime in logical time units; 0 or
	// negative means the tuple never expires.
	LeaseTime float64
}

var (
	_ tuple.Tuple    = (*Flood)(nil)
	_ tuple.Expiring = (*Flood)(nil)
)

// NewFlood creates an unbounded flood tuple.
func NewFlood(name string, payload ...tuple.Field) *Flood {
	return &Flood{Name: name, Payload: payload}
}

// Within bounds the flood to ttl hops and returns it.
func (f *Flood) Within(ttl int64) *Flood {
	f.TTL = ttl
	return f
}

// Expires gives every copy a finite lease and returns the flood.
func (f *Flood) Expires(lease float64) *Flood {
	f.LeaseTime = lease
	return f
}

// Lease implements tuple.Expiring.
func (f *Flood) Lease() float64 { return f.LeaseTime }

// Kind implements tuple.Tuple.
func (f *Flood) Kind() string { return KindFlood }

// Content implements tuple.Tuple.
func (f *Flood) Content() tuple.Content {
	return AppContent(f.Name, f.Payload, tuple.I("_ttl", f.TTL), tuple.F("_lease", f.LeaseTime))
}

// ShouldStore implements tuple.Tuple.
func (f *Flood) ShouldStore(ctx *tuple.Ctx) bool {
	return f.TTL <= 0 || int64(ctx.Hop) <= f.TTL
}

// ShouldPropagate implements tuple.Tuple.
func (f *Flood) ShouldPropagate(ctx *tuple.Ctx) bool {
	return f.TTL <= 0 || int64(ctx.Hop) < f.TTL
}

func decodeFlood(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, meta := SplitMeta(c)
	name, payload, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	f := &Flood{
		Name:      name,
		Payload:   payload,
		TTL:       MetaInt(meta, "_ttl", 0),
		LeaseTime: MetaFloat(meta, "_lease", 0),
	}
	f.SetID(id)
	return f, nil
}
