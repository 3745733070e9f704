package emulator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tota/internal/core"
	"tota/internal/mobility"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// The work bound a burst of mobility may cost a settled world: each
// (node, field) copy adopts at most stormAdoptsPerCopy values while
// the world repairs, and the radio never holds more than
// stormPendingPerCopy packets per copy at once.
const (
	stormAdoptsPerCopy  = 8
	stormPendingPerCopy = 1
	stormFields         = 4
)

// TestMobilityStormBounded bounds the maintenance cascade after
// movement: a jittered grid, range 1.5, holds stormFields settled
// gradients; 2 % of its nodes move at random for three ticks and
// freeze, and the world steps until the radio is quiet. A node that
// hears k announcements in one round must re-announce once, from the
// round's final state, not k times: every case below passes the
// pending bound when announcements leave one per packet, and 400-node
// seed 2 then reaches millions of pending packets.
// Stepping stops as soon as pending passes the bound, so a storm fails
// fast rather than filling memory.
func TestMobilityStormBounded(t *testing.T) {
	cases := []struct {
		nodes int
		seeds []int64
	}{
		{400, []int64{1, 2, 3, 4}},
		{2500, []int64{1, 2, 3}},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("n%d/seed%d", c.nodes, seed), func(t *testing.T) {
				runStorm(t, c.nodes, seed)
			})
		}
	}
}

func runStorm(t *testing.T, nodes int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(nodes))))
	g := topology.New()
	for i := 0; i < nodes; i++ {
		g.SetPosition(topology.NodeName(i), space.Point{
			X: float64(i%side) + (rng.Float64()-0.5)*0.3,
			Y: float64(i/side) + (rng.Float64()-0.5)*0.3,
		})
	}
	g.Recompute(1.5)
	w := New(Config{Graph: g, RadioRange: 1.5, Seed: seed,
		NodeOptions: []core.Option{core.WithMaxHops(2*side + 16)}})

	srcs := make([]tuple.NodeID, stormFields)
	for f := range srcs {
		srcs[f] = topology.NodeName(rng.Intn(nodes))
		if _, err := w.Node(srcs[f]).Inject(pattern.NewGradient(fmt.Sprintf("f%d", f))); err != nil {
			t.Fatal(err)
		}
	}
	w.Settle(1 << 20)

	bounds := space.Rect{Max: space.Point{X: float64(side - 1), Y: float64(side - 1)}}
	movers := rng.Perm(nodes)[:nodes*2/100]
	for _, i := range movers {
		id := topology.NodeName(i)
		p, _ := g.Position(id)
		w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 1, 2, 0, rng))
	}
	copies := int64(nodes * stormFields)
	adopt0 := w.TotalStats().MaintAdopt
	for range 3 {
		w.Tick(1)
	}
	for _, i := range movers {
		id := topology.NodeName(i)
		p, _ := g.Position(id)
		w.SetMover(id, &mobility.Static{P: p})
	}

	limit := int(copies * stormPendingPerCopy)
	peak, rounds := 0, 0
	for pending := w.Sim().Pending(); pending > 0; pending = w.Sim().Pending() {
		peak = max(peak, pending)
		if pending > limit {
			t.Fatalf("%d packets pending after %d rounds, bound %d (%d per copy)",
				pending, rounds, limit, stormPendingPerCopy)
		}
		w.Sim().Step()
		rounds++
	}
	adopts := w.TotalStats().MaintAdopt - adopt0
	t.Logf("quiet in %d rounds, peak %d pending, %.2f adoptions per copy", rounds, peak, float64(adopts)/float64(copies))
	if adopts > copies*stormAdoptsPerCopy {
		t.Errorf("%d adoptions over %d copies, bound %d per copy", adopts, copies, stormAdoptsPerCopy)
	}
	for f, src := range srcs {
		meanAbs, missing, extra := w.GradientError(pattern.KindGradient, fmt.Sprintf("f%d", f), src, math.Inf(1))
		if meanAbs != 0 || missing != 0 || extra != 0 {
			t.Errorf("field f%d from %s: err=%v missing=%d extra=%d", f, src, meanAbs, missing, extra)
		}
	}
}
