package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"tota/internal/core"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE2 quantifies what §6 defers to future work: "the TOTA delays in
// updating the tuples distributed structures in response to dynamic
// changes". A gradient is built on a grid, then perturbations of each
// kind are applied one at a time; for each we measure the repair delay
// (radio rounds until quiescence), the repair traffic, and verify the
// structure converges back to the BFS oracle. The locality rows show
// repair cost against the perturbation's distance from the source —
// the paper's claim that maintenance is a local affair.
func RunE2(scale Scale) *Result {
	side := 8
	trials := 5
	if scale == Full {
		side = 12
		trials = 20
	}
	tbl := newTable(
		"E2 (§3/§6): structure self-maintenance under dynamic changes",
		"perturbation", "trials", "repairRounds(mean)", "repairMsgs(mean)", "msgs/round", "finalErr", "converged%",
		"repairLat p50", "repairLat p95")
	res := newResult(tbl)

	type outcome struct {
		rounds, msgs float64
		err          float64
		converged    int
		n            int
	}
	runOn := func(name string, gridSide int, perturb func(w *worldT, rng *rand.Rand) bool) {
		var o outcome
		rng := rand.New(rand.NewSource(42))
		// Repair latency (churn → first adoption, in radio rounds)
		// aggregated over the trials, clocked on the settle counter.
		var round int64
		lat := obs.NewLatencies(nil, func() float64 { return float64(round) }, obs.RoundBuckets)
		for i := 0; i < trials; i++ {
			lat.Reset()
			g := topology.Grid(gridSide, gridSide, 1)
			w := newWorldOpts(g, core.WithTracer(lat.Tracer()))
			src := topology.NodeName(0)
			if _, err := w.Node(src).Inject(pattern.NewGradient("e2")); err != nil {
				continue
			}
			settleCounting(w, &round, settleBudget)
			w.Sim().ResetStats()
			if !perturb(w, rng) {
				continue
			}
			lat.MarkChurn()
			rounds := settleCounting(w, &round, settleBudget)
			st := w.Sim().Stats()
			meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "e2", src, math.Inf(1))
			o.rounds += float64(rounds)
			o.msgs += float64(st.Sent)
			o.err += meanAbs
			if meanAbs == 0 && missing == 0 && extra == 0 {
				o.converged++
			}
			o.n++
		}
		if o.n == 0 {
			return
		}
		fn := float64(o.n)
		p50, p95 := lat.Repair.Quantile(0.5), lat.Repair.Quantile(0.95)
		msgsPerRound := 0.0
		if o.rounds > 0 {
			msgsPerRound = o.msgs / o.rounds
		}
		tbl.AddRow(name, o.n, o.rounds/fn, o.msgs/fn, msgsPerRound, o.err/fn, 100*float64(o.converged)/fn, p50, p95)
		res.Metrics["repair_rounds_"+name] = o.rounds / fn
		res.Metrics["repair_msgs_"+name] = o.msgs / fn
		res.Metrics["repair_msgs_per_round_"+name] = msgsPerRound
		res.Metrics["converged_"+name] = float64(o.converged) / fn
		res.Metrics["repair_lat_p50_"+name] = p50
		res.Metrics["repair_lat_p95_"+name] = p95
	}
	run := func(name string, perturb func(w *worldT, rng *rand.Rand) bool) {
		runOn(name, side, perturb)
	}

	run("link removal", func(w *worldT, rng *rand.Rand) bool {
		a, b, ok := randomRemovableEdge(w, rng)
		if !ok {
			return false
		}
		w.RemoveEdge(a, b)
		return true
	})
	run("link addition", func(w *worldT, rng *rand.Rand) bool {
		nodes := w.Graph().Nodes()
		for tries := 0; tries < 50; tries++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			if a != b && !w.Graph().HasEdge(a, b) {
				w.AddEdge(a, b)
				return true
			}
		}
		return false
	})
	run("node crash", func(w *worldT, rng *rand.Rand) bool {
		nodes := w.Graph().Nodes()
		// Never crash the source (index 0) — source crash is the
		// teardown case measured separately.
		id := nodes[1+rng.Intn(len(nodes)-1)]
		if !connectedWithout(w.Graph(), id) {
			return false
		}
		w.RemoveNode(id)
		return true
	})
	run("node join", func(w *worldT, rng *rand.Rand) bool {
		nodes := w.Graph().Nodes()
		anchor := nodes[rng.Intn(len(nodes))]
		w.AddNode("joiner", pointNear(w, anchor))
		w.AddEdge(anchor, "joiner")
		return true
	})

	// Locality: repair traffic vs distance of the removed link from the
	// source. Local repair means cost does not grow with distance.
	for _, band := range []struct {
		name     string
		min, max int
	}{
		{"link removal near source (d<=3)", 0, 3},
		{"link removal far from source (d>=8)", 8, 1 << 30},
	} {
		band := band
		run(band.name, func(w *worldT, rng *rand.Rand) bool {
			src := topology.NodeName(0)
			dist := w.Graph().BFSDistances(src)
			for tries := 0; tries < 200; tries++ {
				a, b, ok := randomRemovableEdge(w, rng)
				if !ok {
					return false
				}
				d := dist[a]
				if d >= band.min && d <= band.max {
					w.RemoveEdge(a, b)
					return true
				}
			}
			return false
		})
	}

	// Locality vs network size: if repair cost depended on N, these
	// rows would grow with the grid; local repair keeps them flat.
	if scale == Full {
		for _, s := range []int{8, 12, 16, 20} {
			s := s
			runOn(fmt.Sprintf("link removal (%dx%d grid)", s, s), s,
				func(w *worldT, rng *rand.Rand) bool {
					a, b, ok := randomRemovableEdge(w, rng)
					if !ok {
						return false
					}
					w.RemoveEdge(a, b)
					return true
				})
		}
	}
	return res
}

func randomRemovableEdge(w *worldT, rng *rand.Rand) (tuple.NodeID, tuple.NodeID, bool) {
	g := w.Graph()
	nodes := g.Nodes()
	for tries := 0; tries < 100; tries++ {
		a := nodes[rng.Intn(len(nodes))]
		nbrs := g.Neighbors(a)
		if len(nbrs) == 0 {
			continue
		}
		b := nbrs[rng.Intn(len(nbrs))]
		if !g.HasEdge(a, b) {
			continue
		}
		// Keep the network connected so the repair target exists.
		g.RemoveEdge(a, b)
		connected := g.Connected()
		g.AddEdge(a, b)
		if connected {
			return a, b, true
		}
	}
	return "", "", false
}

func connectedWithout(g *topology.Graph, id tuple.NodeID) bool {
	c := g.Clone()
	c.RemoveNode(id)
	return c.Connected()
}
