package pattern

import (
	"math"

	"tota/internal/space"
	"tota/internal/tuple"
)

// Directional is a flood confined to an angular sector anchored at the
// source — the paper's "propagating in a specific direction". The
// source position is captured at injection; nodes outside the sector
// (or without a localization fix) neither store nor relay the tuple.
//
// Content layout: (name, payload..., _ttl, _sx, _sy, _dx, _dy, _spread, _hassrc).
type Directional struct {
	tuple.Base

	Name    string
	Payload tuple.Content
	// TTL bounds propagation in hops; 0 or negative means unbounded.
	TTL int64
	// Direction is the sector axis; Spread the half-angle in radians.
	Direction space.Vector
	Spread    float64

	src    space.Point
	hasSrc bool
}

var (
	_ tuple.Tuple      = (*Directional)(nil)
	_ tuple.Injectable = (*Directional)(nil)
)

// NewDirectional creates a directional flood along direction with the
// given half-angle spread (radians).
func NewDirectional(name string, direction space.Vector, spread float64, payload ...tuple.Field) *Directional {
	return &Directional{
		Name:      name,
		Payload:   payload,
		Direction: direction,
		Spread:    spread,
	}
}

// Within bounds propagation to ttl hops and returns the tuple.
func (d *Directional) Within(ttl int64) *Directional {
	d.TTL = ttl
	return d
}

// Kind implements tuple.Tuple.
func (d *Directional) Kind() string { return KindDirectional }

// Content implements tuple.Tuple.
func (d *Directional) Content() tuple.Content {
	return AppContent(d.Name, d.Payload,
		tuple.I("_ttl", d.TTL),
		tuple.F("_sx", d.src.X),
		tuple.F("_sy", d.src.Y),
		tuple.F("_dx", d.Direction.DX),
		tuple.F("_dy", d.Direction.DY),
		tuple.F("_spread", d.Spread),
		tuple.B("_hassrc", d.hasSrc),
	)
}

// OnInject implements tuple.Injectable.
func (d *Directional) OnInject(ctx *tuple.Ctx) tuple.Tuple {
	c := *d
	c.src = ctx.Pos
	c.hasSrc = ctx.HasPos
	return &c
}

func (d *Directional) inSector(ctx *tuple.Ctx) bool {
	if ctx.Injected() {
		return true
	}
	if !d.hasSrc || !ctx.HasPos {
		return false
	}
	h := space.HalfPlane{Origin: d.src, Direction: d.Direction, Spread: d.Spread}
	return h.Contains(ctx.Pos)
}

func (d *Directional) withinTTL(hop int) bool {
	return d.TTL <= 0 || int64(hop) <= d.TTL
}

// ShouldStore implements tuple.Tuple.
func (d *Directional) ShouldStore(ctx *tuple.Ctx) bool {
	return d.inSector(ctx) && d.withinTTL(ctx.Hop)
}

// ShouldPropagate implements tuple.Tuple.
func (d *Directional) ShouldPropagate(ctx *tuple.Ctx) bool {
	return d.inSector(ctx) && (d.TTL <= 0 || int64(ctx.Hop) < d.TTL)
}

func decodeDirectional(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, meta := SplitMeta(c)
	name, payload, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	d := &Directional{
		Name:    name,
		Payload: payload,
		TTL:     MetaInt(meta, "_ttl", 0),
		Direction: space.Vector{
			DX: MetaFloat(meta, "_dx", 1),
			DY: MetaFloat(meta, "_dy", 0),
		},
		Spread: MetaFloat(meta, "_spread", math.Pi/2),
		src: space.Point{
			X: MetaFloat(meta, "_sx", 0),
			Y: MetaFloat(meta, "_sy", 0),
		},
		hasSrc: MetaBool(meta, "_hassrc", false),
	}
	d.SetID(id)
	return d, nil
}
