package experiment

import (
	"math"

	"tota/internal/emulator"
	"tota/internal/fault"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// e2RepairMsgsBaseline is E2's measured mean repair traffic for a
// single perturbation on the quick grid ("link removal" row). E13's
// acceptance bound is that chaos repair overhead stays within 2× this
// per heal event — i.e. compound fault recovery remains a local affair,
// not a global rebuild.
const e2RepairMsgsBaseline = 12.20

// RunE13 is the chaos soak: a seeded matrix of loss bursts, partitions,
// node crash/restart cycles and frame corruption — alone and combined —
// driven by the fault injector against a maintained gradient on the one
// engine configuration every node runs. For each scenario it
// verifies the structure reconverges to the BFS oracle after all faults
// heal, and measures the repair traffic as overhead over a fault-free
// control run of the same anti-entropy schedule.
func RunE13(scale Scale) *Result {
	side := 6
	if scale == Full {
		side = 8
	}
	n := topology.NodeName
	corner := []tuple.NodeID{n(side*side - 1), n(side*side - 2), n(side*side - side - 1)}
	type scenario struct {
		name string
		plan fault.Plan
	}
	scenarios := []scenario{
		{"loss burst 50%", fault.Plan{Events: []fault.Event{
			{Kind: fault.Loss, From: 4, Until: 10, P: 0.5},
		}}},
		{"partition corner", fault.Plan{Events: []fault.Event{
			{Kind: fault.Partition, From: 4, Until: 12, Nodes: corner},
		}}},
		{"crash x2", fault.Plan{Events: []fault.Event{
			{Kind: fault.Crash, From: 4, Until: 12, Nodes: []tuple.NodeID{n(side + 1), n(2*side + 3)}},
		}}},
		{"corruption 30%", fault.Plan{Events: []fault.Event{
			{Kind: fault.Corrupt, From: 4, Until: 10, P: 0.3},
		}}},
		{"combined chaos", fault.Plan{Events: []fault.Event{
			{Kind: fault.Loss, From: 3, Until: 9, P: 0.4},
			{Kind: fault.Corrupt, From: 5, Until: 11, P: 0.2},
			{Kind: fault.Partition, From: 6, Until: 13, Nodes: corner},
			{Kind: fault.Crash, From: 8, Until: 14, Nodes: []tuple.NodeID{n(side + 1)}},
		}}},
	}

	tbl := newTable(
		"E13 (robustness): chaos soak — coherence and repair cost after compound faults",
		"scenario", "heals", "epochs", "repairMsgs", "overhead/heal",
		"converged", "suspected", "pullSuppr", "blocked", "corrupted")
	res := newResult(tbl)

	build := func() *emulator.World {
		w := emulator.New(emulator.Config{
			Graph:        topology.Grid(side, side, 1),
			RefreshEvery: 2,
			Seed:         1303,
		})
		if _, err := w.Node(n(0)).Inject(pattern.NewGradient("e13")); err != nil {
			return nil
		}
		w.Settle(settleBudget)
		return w
	}
	coherent := func(w *emulator.World) bool {
		meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "e13", n(0), math.Inf(1))
		return meanAbs == 0 && missing == 0 && extra == 0
	}

	const maxEpochs = 40
	for _, sc := range scenarios {
		w := build()
		if w == nil {
			continue
		}
		heals := 0
		for _, e := range sc.plan.Events {
			if e.Until > e.From {
				heals++
			}
		}
		fault.New(w, sc.plan)
		for tick := 0; tick <= sc.plan.MaxTick()+1; tick++ {
			w.Tick(1)
		}
		// All windows are healed. Snapshot the fault-phase radio damage,
		// then count the anti-entropy epochs and traffic to reconverge.
		faultNet := w.Sim().Stats()
		w.Sim().ResetStats()
		epochs := 0
		for ; epochs < maxEpochs && !coherent(w); epochs++ {
			w.RefreshAll()
			w.Settle(settleBudget)
		}
		repairMsgs := float64(w.Sim().Stats().Sent)
		converged := 0.0
		if coherent(w) {
			converged = 1
		}
		st := w.TotalStats()

		// Control: the identical refresh schedule on an undamaged world
		// isolates the steady-state anti-entropy cost, so the difference
		// is attributable to fault repair.
		ctl := build()
		baseline := 0.0
		if ctl != nil {
			ctl.Sim().ResetStats()
			for i := 0; i < epochs; i++ {
				ctl.RefreshAll()
				ctl.Settle(settleBudget)
			}
			baseline = float64(ctl.Sim().Stats().Sent)
		}
		overheadPerHeal := 0.0
		if heals > 0 {
			overheadPerHeal = math.Max(repairMsgs-baseline, 0) / float64(heals)
		}

		tbl.AddRow(sc.name, heals, epochs, repairMsgs, overheadPerHeal,
			converged, float64(st.Suspected), float64(st.PullsSuppressed),
			float64(faultNet.Blocked), float64(faultNet.Corrupted))
		res.Metrics["converged_"+sc.name] = converged
		res.Metrics["repair_epochs_"+sc.name] = float64(epochs)
		res.Metrics["repair_msgs_"+sc.name] = repairMsgs
		res.Metrics["overhead_per_heal_"+sc.name] = overheadPerHeal
		res.Metrics["suspected_"+sc.name] = float64(st.Suspected)
		res.Metrics["pulls_suppressed_"+sc.name] = float64(st.PullsSuppressed)
	}
	return res
}
