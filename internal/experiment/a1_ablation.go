package experiment

import (
	"math"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunA1 ablates the two engine mechanisms DESIGN.md singles out:
//
//   - Poisoned reverse in maintenance. Without it, tearing down a
//     structure stranded behind a partition degenerates into mutual
//     count-to-scope between neighbor pairs: the teardown still
//     terminates (the scope bounds it) but costs rounds and messages
//     proportional to the remaining scope headroom instead of O(region).
//   - Newcomer catch-up. Without the unicast of stored tuples to a new
//     neighbor, a joiner stays blind to existing structures until an
//     anti-entropy refresh happens to run.
func RunA1(scale Scale) *Result {
	tbl := newTable(
		"A1 (ablations): poisoned reverse and newcomer catch-up",
		"variant", "teardownRounds", "teardownMsgs", "joinerLearned", "joinerMsgs")
	res := newResult(tbl)

	scope := 12.0
	if scale == Full {
		scope = 30
	}
	for _, variant := range []struct {
		label string
		opts  []core.Option
	}{
		{label: "full engine"},
		{label: "no poisoned reverse", opts: []core.Option{core.WithoutPoisonedReverse()}},
		{label: "no catch-up", opts: []core.Option{core.WithoutCatchUp()}},
	} {
		tr, tm := teardownCost(scope, variant.opts)
		learned, jm := joinerCost(variant.opts)
		tbl.AddRow(variant.label, tr, tm, learned, jm)
		res.Metrics["teardown_rounds_"+variant.label] = float64(tr)
		res.Metrics["teardown_msgs_"+variant.label] = float64(tm)
		res.Metrics["joiner_learned_"+variant.label] = boolTo01(learned)
	}
	return res
}

// teardownCost builds a scoped gradient along a line, cuts the tail
// off, and measures how long the stranded copies take to vanish. With
// poisoned reverse the tail nodes cannot support each other (each
// neighbor's value is parented on the other side) and the teardown is
// O(region); without it, adjacent tail nodes adopt each other's values
// in turn and count up to the scope.
func teardownCost(scope float64, opts []core.Option) (rounds int, msgs int64) {
	g := topology.New()
	g.AddEdge("src", "gate")
	g.AddEdge("gate", "t1")
	g.AddEdge("t1", "t2")
	g.AddEdge("t2", "t3")
	w := emulator.New(emulator.Config{Graph: g, NodeOptions: opts})
	if _, err := w.Node("src").Inject(pattern.NewGradient("a1").Bounded(scope)); err != nil {
		return 0, 0
	}
	w.Settle(settleBudget)
	w.Sim().ResetStats()
	w.RemoveEdge("gate", "t1")
	rounds = w.Settle(settleBudget)
	return rounds, w.Sim().Stats().Sent
}

// joinerCost attaches a new node to an existing structure and reports
// whether it learned the structure without any further stimulus.
func joinerCost(opts []core.Option) (learned bool, msgs int64) {
	g := topology.Line(4)
	w := emulator.New(emulator.Config{Graph: g, NodeOptions: opts})
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("a1")); err != nil {
		return false, 0
	}
	w.Settle(settleBudget)
	w.Sim().ResetStats()
	n := w.AddNode("joiner", pointNear(w, topology.NodeName(3)))
	w.AddEdge(topology.NodeName(3), "joiner")
	w.Settle(settleBudget)
	ts := n.Read(pattern.ByName(pattern.KindGradient, "a1"))
	learned = len(ts) == 1 && ts[0].(tuple.Maintained).Value() == 4
	return learned, w.Sim().Stats().Sent
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RunA2 sweeps the anti-entropy refresh period against radio loss: the
// structure quality one buys with refresh traffic. Event-driven
// propagation alone (period 0 = never refresh) leaves wrong values on
// lossy radios — min-wins dedup gets a copy almost everywhere, but the
// shortest-path announcements that were lost leave inflated distances —
// and each refresh round repairs them at a bounded message cost.
func RunA2(scale Scale) *Result {
	side := 8
	ticks := 40
	losses := []float64{0, 0.3}
	periods := []int{0, 10, 5}
	if scale == Full {
		side = 10
		ticks = 60
		losses = []float64{0, 0.2, 0.4}
		periods = []int{0, 20, 10, 5}
	}
	tbl := newTable(
		"A2 (ablation): anti-entropy refresh period vs radio loss",
		"loss", "refreshEvery", "coverage%", "meanAbsErr", "radioSends")
	res := newResult(tbl)

	for _, loss := range losses {
		for _, period := range periods {
			g := topology.Grid(side, side, 1)
			w := emulator.New(emulator.Config{
				Graph:        g,
				Loss:         loss,
				RefreshEvery: period,
				Seed:         13,
			})
			src := topology.NodeName(0)
			if _, err := w.Node(src).Inject(pattern.NewGradient("a2")); err != nil {
				continue
			}
			for i := 0; i < ticks; i++ {
				w.Tick(1)
			}
			w.Settle(settleBudget)
			meanAbs, missing, _ := w.GradientError(pattern.KindGradient, "a2", src, math.Inf(1))
			coverage := 100 * float64(g.Len()-missing) / float64(g.Len())
			tbl.AddRow(loss, period, coverage, meanAbs, w.Sim().Stats().Sent)
			key := formatFloat(loss) + "_p" + formatFloat(float64(period))
			res.Metrics["coverage_l"+key] = coverage
			res.Metrics["err_l"+key] = meanAbs
		}
	}
	return res
}
