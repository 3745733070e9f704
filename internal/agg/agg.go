// Package agg implements in-network aggregation over TOTA gradient
// structures: a query tuple propagates like any maintained field and
// the spanning structure it leaves behind (each copy's parent link)
// carries an epoch-based convergecast in which every node combines its
// children's partial aggregates with its local matching tuples and
// forwards one compact partial toward the source (Madden et al.'s TAG
// pattern mapped onto tuples on the air).
//
// The package is a leaf: it defines the aggregate algebra (Op, Partial,
// Sketch) and the Query tuple kind; internal/wire frames Partial on the
// air and internal/core runs the convergecast on the refresh epoch.
package agg

import (
	"fmt"
	"math"
)

// Op selects the decomposable aggregate a query computes. All ops share
// one Partial representation, so a single convergecast serves any of
// them and intermediate nodes need not understand the final reduction.
type Op uint8

const (
	// Count counts matching tuples.
	Count Op = iota + 1
	// Sum sums the selected field.
	Sum
	// Min takes the minimum of the selected field.
	Min
	// Max takes the maximum of the selected field.
	Max
	// Avg averages the selected field (Sum/Count at the source).
	Avg
	// CountDistinct estimates the number of distinct selected values
	// with a duplicate-insensitive sketch, so re-propagation and
	// duplicated partials cannot inflate the result.
	CountDistinct
)

// String returns the op's query-language spelling.
func (o Op) String() string {
	switch o {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	case CountDistinct:
		return "count-distinct"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp maps a spelling back to the op, for CLI flags and decoding.
func ParseOp(s string) (Op, bool) {
	for _, o := range []Op{Count, Sum, Min, Max, Avg, CountDistinct} {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// Valid reports whether o is a known aggregate op.
func (o Op) Valid() bool { return o >= Count && o <= CountDistinct }

// Partial is a decomposable partial aggregate: the per-subtree state a
// node forwards up its parent link. It carries every merge-able moment
// at once (count, sum, min, max, optional distinct sketch) so one
// convergecast answers any Op and combining is associative and
// commutative regardless of the tree shape the epoch happened to use.
type Partial struct {
	// Count is the number of observed samples.
	Count int64
	// Sum is the sum of observed samples.
	Sum float64
	// Min is the smallest observed sample (+Inf when Count is 0).
	Min float64
	// Max is the largest observed sample (-Inf when Count is 0).
	Max float64
	// HasSketch marks Sketch as populated (CountDistinct queries).
	HasSketch bool
	// Sketch is the duplicate-insensitive distinct-value summary.
	Sketch Sketch
}

// NewPartial returns the identity element of the combine operation.
func NewPartial() Partial {
	return Partial{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Observe folds one local sample into the partial. CountDistinct
// queries additionally feed the sketch, keyed by the sample's bit
// pattern, so duplicated observations of the same value collapse.
func (p *Partial) Observe(op Op, v float64) {
	p.Count++
	p.Sum += v
	if v < p.Min {
		p.Min = v
	}
	if v > p.Max {
		p.Max = v
	}
	if op == CountDistinct {
		p.HasSketch = true
		p.Sketch.Add(v)
	}
}

// Combine folds another partial into p. The operation is associative
// and commutative for every moment except floating-point Sum, where
// the engine fixes the fold order (sorted child keys) to keep results
// bit-identical across runs and worker counts.
func (p *Partial) Combine(q Partial) {
	p.Count += q.Count
	p.Sum += q.Sum
	if q.Min < p.Min {
		p.Min = q.Min
	}
	if q.Max > p.Max {
		p.Max = q.Max
	}
	if q.HasSketch {
		p.HasSketch = true
		p.Sketch.Merge(q.Sketch)
	}
}

// Value reduces the partial to the final scalar for op. Min/Max of an
// empty range keep their infinities; Avg of an empty range is NaN-free
// zero so dashboards stay readable.
func (p Partial) Value(op Op) float64 {
	switch op {
	case Count:
		return float64(p.Count)
	case Sum:
		return p.Sum
	case Min:
		return p.Min
	case Max:
		return p.Max
	case Avg:
		if p.Count == 0 {
			return 0
		}
		return p.Sum / float64(p.Count)
	case CountDistinct:
		return p.Sketch.Estimate()
	}
	return 0
}

// Result is a query answer computed at the source node: the combined
// partial, the epoch it was computed on, and the reduction to apply.
type Result struct {
	// Op is the query's aggregate op.
	Op Op
	// Epoch numbers the source refresh epoch the result was computed on.
	Epoch uint32
	// Partial is the full combined state (all moments).
	Partial Partial
}

// Value returns the scalar answer.
func (r Result) Value() float64 { return r.Partial.Value(r.Op) }

// String renders the result for logs and CLIs.
func (r Result) String() string {
	return fmt.Sprintf("%s=%g (n=%d, epoch %d)", r.Op, r.Value(), r.Partial.Count, r.Epoch)
}
