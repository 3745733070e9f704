package pattern

import (
	"math"

	"tota/internal/tuple"
)

// Downhill is the paper's §5.1 message tuple: "if a structure tuple
// having my same receiver can be found in the local node, follow
// downhill its hopcount, otherwise propagate to all the nodes". It is
// non-storing on intermediate nodes — a pure message — and is delivered
// (stored) only at the structure's source, where the descended gradient
// reaches its minimum value 0.
//
// Best tracks the smallest structure value seen along this copy's path;
// a node relays the message only when its own value improves on Best,
// which confines propagation to the downhill slope.
//
// Content layout: (name, payload..., _skind, _best, _flood).
type Downhill struct {
	tuple.Base

	// StructName names the gradient structure to descend.
	StructName string
	// StructKind is the structure's tuple kind (default KindGradient).
	StructKind string
	// Payload is the message body.
	Payload tuple.Content
	// Best is the smallest structure value observed along the path.
	Best float64
	// FloodWhenLost makes nodes without the structure relay the message
	// anyway, degrading gracefully to flooding (the paper's fallback).
	FloodWhenLost bool

	// prevBest is the incoming Best before this hop's evolution,
	// consulted by ShouldPropagate. It is transient (not serialized):
	// the factory re-seeds it from the wire Best.
	prevBest float64
}

var _ tuple.Tuple = (*Downhill)(nil)

// NewDownhill creates a message that descends the named gradient
// structure, flooding when the structure is absent.
func NewDownhill(structName string, payload ...tuple.Field) *Downhill {
	return &Downhill{
		StructName:    structName,
		StructKind:    KindGradient,
		Payload:       payload,
		Best:          math.Inf(1),
		FloodWhenLost: true,
		prevBest:      math.Inf(1),
	}
}

// Descending sets the structure kind to descend (e.g. KindFlock) and
// returns the tuple.
func (d *Downhill) Descending(kind string) *Downhill {
	d.StructKind = kind
	return d
}

// StrictSlope disables the flooding fallback: the message dies where
// the structure is absent.
func (d *Downhill) StrictSlope() *Downhill {
	d.FloodWhenLost = false
	return d
}

// Kind implements tuple.Tuple.
func (d *Downhill) Kind() string { return KindDownhill }

// Content implements tuple.Tuple.
func (d *Downhill) Content() tuple.Content {
	return AppContent(d.StructName, d.Payload,
		tuple.S("_skind", d.StructKind),
		tuple.F("_best", d.Best),
		tuple.B("_flood", d.FloodWhenLost),
	)
}

// localVal senses the descended structure at the hook's node.
func (d *Downhill) localVal(ctx *tuple.Ctx) (float64, bool) {
	return GradientsAt(ctx.Store, d.StructKind, d.StructName)
}

// Evolve implements tuple.Tuple: the copy absorbs the node's structure
// value into Best.
func (d *Downhill) Evolve(ctx *tuple.Ctx) tuple.Tuple {
	v, ok := d.localVal(ctx)
	c := *d
	c.prevBest = d.Best
	if ok && v < c.Best {
		c.Best = v
	}
	return &c
}

// ShouldStore implements tuple.Tuple: delivery happens only at the
// structure's minimum (its source).
func (d *Downhill) ShouldStore(ctx *tuple.Ctx) bool {
	v, ok := d.localVal(ctx)
	return ok && v == 0
}

// ShouldPropagate implements tuple.Tuple: relay strictly downhill, or
// everywhere when the structure is absent and flooding is allowed.
func (d *Downhill) ShouldPropagate(ctx *tuple.Ctx) bool {
	v, ok := d.localVal(ctx)
	if !ok {
		return d.FloodWhenLost
	}
	return v > 0 && v < d.prevBest
}

func decodeDownhill(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, meta := SplitMeta(c)
	name, payload, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	best := MetaFloat(meta, "_best", math.Inf(1))
	d := &Downhill{
		StructName:    name,
		StructKind:    MetaString(meta, "_skind", KindGradient),
		Payload:       payload,
		Best:          best,
		FloodWhenLost: MetaBool(meta, "_flood", true),
		prevBest:      best,
	}
	d.SetID(id)
	return d, nil
}
