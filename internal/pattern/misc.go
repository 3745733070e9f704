package pattern

import (
	"tota/internal/tuple"
)

// Eraser is the paper's deleting propagation: a tuple "propagating by
// deleting specific tuples in the propagation nodes (this can be used
// to supply the lack of a delete primitive in the API)". It floods (TTL
// optional), deleting every locally stored tuple of TargetKind whose
// name field equals TargetName as it passes; it is not stored itself.
//
// Deleting a *maintained* structure copy this way triggers the
// middleware's repair (the hole heals from the neighbors); to remove a
// maintained structure network-wide use the Retract API instead.
//
// Content layout: (name, _tkind, _tname, _ttl).
type Eraser struct {
	tuple.Base

	Name       string
	TargetKind string
	TargetName string
	TTL        int64
}

var _ tuple.Tuple = (*Eraser)(nil)

// NewEraser creates an unbounded eraser for tuples of the given kind
// and application name.
func NewEraser(name, targetKind, targetName string) *Eraser {
	return &Eraser{Name: name, TargetKind: targetKind, TargetName: targetName}
}

// Within bounds the eraser to ttl hops and returns it.
func (e *Eraser) Within(ttl int64) *Eraser {
	e.TTL = ttl
	return e
}

// Kind implements tuple.Tuple.
func (e *Eraser) Kind() string { return KindEraser }

// Content implements tuple.Tuple.
func (e *Eraser) Content() tuple.Content {
	return AppContent(e.Name, nil,
		tuple.S("_tkind", e.TargetKind),
		tuple.S("_tname", e.TargetName),
		tuple.I("_ttl", e.TTL),
	)
}

// OnArrive implements tuple.Tuple, deleting the targets.
func (e *Eraser) OnArrive(ctx *tuple.Ctx) {
	if ctx.Store == nil {
		return
	}
	ctx.Store.Delete(ByName(e.TargetKind, e.TargetName))
}

// ShouldStore implements tuple.Tuple: erasers pass through without
// being stored.
func (e *Eraser) ShouldStore(*tuple.Ctx) bool { return false }

// ShouldPropagate implements tuple.Tuple.
func (e *Eraser) ShouldPropagate(ctx *tuple.Ctx) bool {
	return e.TTL <= 0 || int64(ctx.Hop) < e.TTL
}

func decodeEraser(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, meta := SplitMeta(c)
	name, _, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	e := &Eraser{
		Name:       name,
		TargetKind: MetaString(meta, "_tkind", ""),
		TargetName: MetaString(meta, "_tname", ""),
		TTL:        MetaInt(meta, "_ttl", 0),
	}
	e.SetID(id)
	return e, nil
}

// Local is a tuple that never leaves its node: application bookkeeping
// living in the local tuple space so it is visible to templates,
// subscriptions and data-adaptive propagation rules of passing tuples.
//
// Content layout: (name, payload...).
type Local struct {
	tuple.Base

	Name    string
	Payload tuple.Content
}

var _ tuple.Tuple = (*Local)(nil)

// NewLocal creates a node-local tuple.
func NewLocal(name string, payload ...tuple.Field) *Local {
	return &Local{Name: name, Payload: payload}
}

// Kind implements tuple.Tuple.
func (l *Local) Kind() string { return KindLocal }

// Content implements tuple.Tuple.
func (l *Local) Content() tuple.Content {
	return AppContent(l.Name, l.Payload)
}

// ShouldPropagate implements tuple.Tuple: local tuples never propagate.
func (l *Local) ShouldPropagate(*tuple.Ctx) bool { return false }

func decodeLocal(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, _ := SplitMeta(c)
	name, payload, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	l := &Local{Name: name, Payload: payload}
	l.SetID(id)
	return l, nil
}
