package agg

import (
	"fmt"
	"math"

	"tota/internal/tuple"
)

// KindQuery is the registered tuple kind of aggregation queries.
const KindQuery = "tota:agg-query"

// Query is an aggregation query distributed as a maintained gradient
// tuple: injected at the querying node it spreads breadth-first within
// Scope, and the parent link each stored copy keeps (the neighbor it
// adopted its value from) doubles as the convergecast tree edge. The
// engine then runs the convergecast on the structure's own refresh
// epoch: every node forwards one combined Partial up its parent per
// epoch, and the source folds its children's into a Result.
//
// Content layout: (name, _op, _selkind, _selname, _selfield, _collect,
// _val, _step, _scope, _lease).
type Query struct {
	tuple.Base

	// Name labels the query for template matching.
	Name string
	// Sel selects the tuples aggregated and the field sampled.
	Sel tuple.Selector
	// Op is the aggregate computed at the source.
	Op Op
	// Val is the gradient value at this copy (0 at the source).
	Val float64
	// StepSize is the per-hop increment (default 1).
	StepSize float64
	// Scope bounds how far the query structure spreads (default
	// unbounded: the whole connected network).
	Scope float64
	// LeaseTime gives copies a finite lifetime (0 = forever), so an
	// abandoned query ages out without an explicit retract.
	LeaseTime float64
	// Collect disables in-network combining: nodes forward every raw
	// per-tuple record up the tree instead of one merged partial.
	// This is the naive collect-all baseline experiments compare
	// against; real queries leave it false.
	Collect bool
}

var (
	_ tuple.Tuple      = (*Query)(nil)
	_ tuple.Maintained = (*Query)(nil)
	_ tuple.Expiring   = (*Query)(nil)
)

// NewQuery creates an unbounded aggregation query.
func NewQuery(name string, op Op, sel tuple.Selector) *Query {
	return &Query{
		Name:     name,
		Sel:      sel,
		Op:       op,
		StepSize: 1,
		Scope:    math.Inf(1),
	}
}

// Bounded sets the gradient scope (maximum value) and returns the
// query, for construction chaining.
func (q *Query) Bounded(scope float64) *Query {
	q.Scope = scope
	return q
}

// Expires gives every copy a finite lease and returns the query.
func (q *Query) Expires(lease float64) *Query {
	q.LeaseTime = lease
	return q
}

// CollectAll switches the query to the naive collect-all baseline and
// returns it.
func (q *Query) CollectAll() *Query {
	q.Collect = true
	return q
}

// Lease implements tuple.Expiring.
func (q *Query) Lease() float64 { return q.LeaseTime }

// Kind implements tuple.Tuple.
func (q *Query) Kind() string { return KindQuery }

// Content implements tuple.Tuple.
func (q *Query) Content() tuple.Content {
	return tuple.Content{
		tuple.S("name", q.Name),
		tuple.I("_op", int64(q.Op)),
		tuple.S("_selkind", q.Sel.Kind),
		tuple.S("_selname", q.Sel.Name),
		tuple.S("_selfield", q.Sel.Field),
		tuple.B("_collect", q.Collect),
		tuple.F(tuple.ValueField, q.Val),
		tuple.F("_step", q.StepSize),
		tuple.F("_scope", q.Scope),
		tuple.F("_lease", q.LeaseTime),
	}
}

// ShouldStore implements tuple.Tuple: copies within scope are stored.
func (q *Query) ShouldStore(*tuple.Ctx) bool { return q.Val <= q.Scope }

// ShouldPropagate implements tuple.Tuple: boundary copies are stored
// but not announced further.
func (q *Query) ShouldPropagate(*tuple.Ctx) bool { return q.Val+q.Step() <= q.Scope }

// Evolve implements tuple.Tuple, incrementing the value per hop.
func (q *Query) Evolve(*tuple.Ctx) tuple.Tuple {
	return q.WithValue(q.Val + q.Step())
}

// Supersedes implements tuple.Tuple: smaller values win (shorter path),
// which keeps the convergecast tree a BFS tree of the live topology.
func (q *Query) Supersedes(old tuple.Tuple) bool {
	oq, ok := old.(*Query)
	return ok && q.Val < oq.Val
}

// Value implements tuple.Maintained.
func (q *Query) Value() float64 { return q.Val }

// WithValue implements tuple.Maintained.
func (q *Query) WithValue(v float64) tuple.Tuple {
	c := *q
	c.Val = v
	return &c
}

// Step implements tuple.Maintained; non-positive configured steps read
// as 1 so maintenance always terminates.
func (q *Query) Step() float64 {
	if q.StepSize <= 0 {
		return 1
	}
	return q.StepSize
}

// MaxValue implements tuple.Maintained.
func (q *Query) MaxValue() float64 { return q.Scope }

// ByName returns the template matching this package's query tuples
// with the given name.
func ByName(name string) tuple.Template {
	return tuple.Match(KindQuery, tuple.Eq(tuple.S("name", name)))
}

func decodeQuery(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	op := Op(c.GetInt("_op"))
	if !op.Valid() {
		return nil, fmt.Errorf("agg: query %v carries unknown op %d", id, uint8(op))
	}
	q := &Query{
		Name: c.GetString("name"),
		Sel: tuple.Selector{
			Kind:  c.GetString("_selkind"),
			Name:  c.GetString("_selname"),
			Field: c.GetString("_selfield"),
		},
		Op:        op,
		Collect:   c.GetBool("_collect"),
		Val:       c.GetFloat(tuple.ValueField),
		StepSize:  metaFloat(c, "_step", 1),
		Scope:     metaFloat(c, "_scope", math.Inf(1)),
		LeaseTime: c.GetFloat("_lease"),
	}
	q.SetID(id)
	return q, nil
}

// metaFloat reads a float field with a default for absent entries
// (GetFloat alone cannot distinguish missing from zero).
func metaFloat(c tuple.Content, name string, def float64) float64 {
	f, ok := c.Get(name)
	if !ok {
		return def
	}
	if v, isF := f.Value.(float64); isF {
		return v
	}
	return def
}

// Register installs the query kind into a registry.
func Register(r *tuple.Registry) {
	r.MustRegister(KindQuery, decodeQuery)
}

func init() {
	Register(tuple.DefaultRegistry)
}
