package experiment

import (
	"fmt"

	"tota/internal/emulator"
	"tota/internal/flock"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE6 reproduces Fig. 3 / §5.3: agents propagate FLOCK fields and
// descend each other's fields to settle at pairwise distance X. Per
// configuration it reports the initial and final formation error (mean
// |pairwise hop distance − X|) and the number of coordination rounds
// until the error first drops to ≤ 1 hop.
func RunE6(scale Scale) *Result {
	type cfg struct {
		label  string
		agents int
		x      float64
		rounds int
	}
	cfgs := []cfg{
		{label: "2 agents, X=3", agents: 2, x: 3, rounds: 120},
	}
	if scale == Full {
		cfgs = append(cfgs,
			cfg{label: "3 agents, X=2", agents: 3, x: 2, rounds: 160},
			cfg{label: "4 agents, X=2", agents: 4, x: 2, rounds: 200},
		)
	}
	tbl := newTable(
		"E6 (Fig. 3, §5.3): flocking — agents settle at target hop distance X",
		"config", "initialErr", "finalErr", "roundsToErr<=1")
	res := newResult(tbl)

	for _, c := range cfgs {
		w, agents := flockScenario(c.agents)
		s, err := flock.NewSwarm(w, agents, flock.Config{
			TargetHops: c.x,
			Scope:      5 * c.x,
			Speed:      0.5,
			Bounds:     space.Rect{Max: space.Point{X: 11, Y: 4}},
		})
		if err != nil {
			continue
		}
		w.Settle(settleBudget)
		initial := s.PairwiseHopError()
		errs := s.Run(c.rounds, 1, settleBudget)
		final := errs[len(errs)-1]
		convergedAt := -1
		for i, e := range errs {
			if e <= 1 {
				convergedAt = i + 1
				break
			}
		}
		conv := "never"
		if convergedAt >= 0 {
			conv = fmt.Sprintf("%d", convergedAt)
		}
		tbl.AddRow(c.label, initial, final, conv)
		res.Metrics["initial_"+c.label] = initial
		res.Metrics["final_"+c.label] = final
	}
	return res
}

// flockScenario builds a relay carpet with the agents spread along it.
func flockScenario(agents int) (*emulator.World, []tuple.NodeID) {
	g := topology.Grid(12, 4, 1)
	var ids []tuple.NodeID
	for i := 0; i < agents; i++ {
		id := tuple.NodeID(fmt.Sprintf("agent%d", i))
		x := 0.5 + float64(i*10)/float64(agents)
		g.SetPosition(id, space.Point{X: x, Y: 1.5})
		ids = append(ids, id)
	}
	g.Recompute(1.2)
	w := emulator.New(emulator.Config{Graph: g, RadioRange: 1.2})
	return w, ids
}

// RenderFlockSnapshot returns a Fig. 3-style ASCII snapshot of a
// flocking run after the given number of rounds (used by cmd/tota-emu
// and the flocking example).
func RenderFlockSnapshot(agents int, x float64, rounds int) (before, after string, err error) {
	w, ids := flockScenario(agents)
	isAgent := make(map[tuple.NodeID]bool, len(ids))
	for _, id := range ids {
		isAgent[id] = true
	}
	mark := func(id tuple.NodeID) rune {
		if isAgent[id] {
			return '#'
		}
		return 0
	}
	s, serr := flock.NewSwarm(w, ids, flock.Config{
		TargetHops: x,
		Scope:      5 * x,
		Speed:      0.5,
		Bounds:     space.Rect{Max: space.Point{X: 11, Y: 4}},
	})
	if serr != nil {
		return "", "", serr
	}
	w.Settle(settleBudget)
	before = w.Render(48, 10, mark)
	s.Run(rounds, 1, settleBudget)
	after = w.Render(48, 10, mark)
	return before, after, nil
}
