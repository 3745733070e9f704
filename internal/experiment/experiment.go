// Package experiment regenerates every evaluation artifact of the TOTA
// paper as a quantitative table (see DESIGN.md §3 and EXPERIMENTS.md).
// E1 reproduces Fig. 1 (tuple propagation), E2 the §3/§6 structure
// self-maintenance claims, E3 the §5.1 routing example with its flooding
// baseline, E4/E5 the two §5.2 information-gathering variants, E6 the
// §5.3 / Fig. 3 flocking, E7 the §6 scalability evaluation the authors
// defer to future work, E8 the §4.2 communication substrate, and E9 the
// §4.3 API microbenchmarks.
//
// Each RunE* function takes a Scale knob so the same code serves quick
// test runs and the full cmd/tota-bench tables. The seeded tables at
// Full scale are committed once, as the marked blocks of EXPERIMENTS.md,
// and TestExperimentTablesGolden regenerates and compares every one.
package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// Runs maps every experiment id (as EXPERIMENTS.md names it) to its
// runner.
var Runs = map[string]func(Scale) *Result{
	"A1":  RunA1,
	"A2":  RunA2,
	"E1":  RunE1,
	"E2":  RunE2,
	"E3":  RunE3,
	"E4":  RunE4,
	"E5":  RunE5,
	"E6":  RunE6,
	"E7":  RunE7,
	"E8":  RunE8,
	"E9":  RunE9,
	"E10": RunE10,
	"E11": RunE11,
	"E12": RunE12,
	"E13": RunE13,
	"E14": RunE14,
	"E15": RunE15,
	"E16": RunE16,
	"E17": RunE17,
	"E18": RunE18,
}

// Scale selects how big the experiment instances are.
type Scale int

// Scales.
const (
	// Quick runs in well under a second per experiment (unit tests).
	Quick Scale = iota + 1
	// Full runs the paper-shaped sweeps (cmd/tota-bench).
	Full
)

// Result is one experiment's output: the reproduced table plus the
// headline numbers its tests assert on.
type Result struct {
	// Table is the paper-shaped table.
	Table *Table
	// Metrics are headline scalar outcomes (name → value), e.g.
	// "delivery_ratio" or "repair_rounds_mean".
	Metrics map[string]float64
}

func newResult(t *Table) *Result {
	return &Result{Table: t, Metrics: make(map[string]float64)}
}

// Table is an experiment's paper-shaped output, rendered as aligned
// fixed-width text.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

func newTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; floats are rendered by formatFloat, anything
// else with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the title, the headers, a rule and the rows. Every
// column but the last is padded to its widest cell, so no line ends in
// spaces.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// formatFloat renders a float compactly (integers without decimals).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// netSpec describes one network configuration in a sweep.
type netSpec struct {
	label string
	build func() *topology.Graph
}

func gridSpec(w, h int) netSpec {
	return netSpec{
		label: fmt.Sprintf("grid %dx%d", w, h),
		build: func() *topology.Graph { return topology.Grid(w, h, 1) },
	}
}

func rggSpec(n int, side, radio float64, seed int64) netSpec {
	return netSpec{
		label: fmt.Sprintf("rgg n=%d", n),
		build: func() *topology.Graph {
			g := topology.ConnectedRandomGeometric(n, side, radio, rand.New(rand.NewSource(seed)), 200)
			if g == nil {
				// Fall back to a denser radio range; the caller's sweep
				// parameters are chosen to make this unreachable.
				g = topology.ConnectedRandomGeometric(n, side, radio*1.5, rand.New(rand.NewSource(seed)), 200)
			}
			return g
		},
	}
}

// worldT abbreviates the emulator world in experiment signatures.
type worldT = emulator.World

func newWorld(g *topology.Graph) *emulator.World {
	return emulator.New(emulator.Config{Graph: g})
}

// newWorldOpts builds a world whose nodes all carry extra middleware
// options (e.g. a latency-tracking tracer).
func newWorldOpts(g *topology.Graph, opts ...core.Option) *emulator.World {
	return emulator.New(emulator.Config{Graph: g, NodeOptions: opts})
}

// settleCounting drains the radio like World.Settle while advancing the
// supplied round counter, so trace-derived latency histograms can use
// it as their clock: the counter is incremented before each Step, and
// tracer callbacks only run inside Step, so an event delivered during
// round k reads exactly k.
func settleCounting(w *emulator.World, round *int64, maxRounds int) int {
	rounds := 0
	for ; rounds < maxRounds && w.Sim().Pending() > 0; rounds++ {
		*round++
		w.Sim().Step()
	}
	return rounds
}

// pointNear returns a position adjacent to the anchor node, for
// attaching joiners.
func pointNear(w *emulator.World, anchor tuple.NodeID) space.Point {
	p, _ := w.Graph().Position(anchor)
	return space.Point{X: p.X + 0.3, Y: p.Y + 0.3}
}

// settleBudget is the round budget for draining a propagation wave.
const settleBudget = 100000
