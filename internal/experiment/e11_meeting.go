package experiment

import (
	"fmt"

	"tota/internal/emulator"
	"tota/internal/meeting"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE11 evaluates the Co-Fields meeting application TOTA was built
// toward (§1, [Mam02]): participants descend the sum of each other's
// gradient fields and converge on a meeting point. Per group size it
// reports the initial and final spread (max pairwise hop distance) and
// the rounds until the group is within 2 hops.
func RunE11(scale Scale) *Result {
	groups := []int{2, 3}
	rounds := 150
	if scale == Full {
		groups = []int{2, 3, 4}
		rounds = 250
	}
	tbl := newTable(
		"E11 (Co-Fields): meeting — participants converge on a common point",
		"participants", "initialSpread", "finalSpread", "roundsToSpread<=2")
	res := newResult(tbl)

	for _, k := range groups {
		g := topology.Grid(9, 9, 1)
		corners := []space.Point{
			{X: 0.5, Y: 0.5}, {X: 7.5, Y: 0.5}, {X: 0.5, Y: 7.5}, {X: 7.5, Y: 7.5},
		}
		var users []tuple.NodeID
		for i := 0; i < k; i++ {
			id := tuple.NodeID(fmt.Sprintf("user%d", i))
			g.SetPosition(id, corners[i%len(corners)])
			users = append(users, id)
		}
		g.Recompute(1.2)
		w := emulator.New(emulator.Config{Graph: g, RadioRange: 1.2})
		m, err := meeting.New(w, users, meeting.Config{
			Speed:  0.5,
			Bounds: space.Rect{Max: space.Point{X: 8, Y: 8}},
		})
		if err != nil {
			continue
		}
		w.Settle(settleBudget)
		initial := m.Spread()
		spreads := m.Run(rounds, 1, settleBudget)
		final := spreads[len(spreads)-1]
		conv := "never"
		for i, s := range spreads {
			if s <= 2 {
				conv = fmt.Sprintf("%d", i+1)
				break
			}
		}
		tbl.AddRow(k, initial, final, conv)
		res.Metrics[fmt.Sprintf("initial_%d", k)] = initial
		res.Metrics[fmt.Sprintf("final_%d", k)] = final
	}
	return res
}
