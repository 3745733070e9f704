package emulator

import (
	"flag"
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

// stormWorld builds the jittered grid of nodes nodes, range 1.5, and
// settles stormFields gradients from rng-drawn sources on it. It returns
// the world, the sources and the rng, drawn from seed, for the caller's
// further draws.
func stormWorld(t *testing.T, nodes int, seed int64) (*World, []tuple.NodeID, *rand.Rand) {
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
	return w, srcs, rng
}

// setMovers gives each of the listed nodes a random-waypoint mover
// (speed 1–2) inside the grid, or freezes it where it stands.
func setMovers(w *World, movers []int, rng *rand.Rand, move bool) {
	side := math.Ceil(math.Sqrt(float64(len(w.Nodes()))))
	bounds := space.Rect{Max: space.Point{X: side - 1, Y: side - 1}}
	for _, i := range movers {
		id := topology.NodeName(i)
		p, _ := w.Graph().Position(id)
		if move {
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 1, 2, 0, rng))
		} else {
			w.SetMover(id, &mobility.Static{P: p})
		}
	}
}

// checkFields requires every field to match the BFS oracle exactly.
func checkFields(t *testing.T, w *World, srcs []tuple.NodeID) {
	t.Helper()
	for f, src := range srcs {
		meanAbs, missing, extra := w.GradientError(pattern.KindGradient, fmt.Sprintf("f%d", f), src, math.Inf(1))
		if meanAbs != 0 || missing != 0 || extra != 0 {
			t.Errorf("field f%d from %s: err=%v missing=%d extra=%d", f, src, meanAbs, missing, extra)
		}
	}
}

func runStorm(t *testing.T, nodes int, seed int64) {
	w, srcs, rng := stormWorld(t, nodes, seed)
	movers := rng.Perm(nodes)[:nodes*2/100]
	setMovers(w, movers, rng, true)
	copies := int64(nodes * stormFields)
	adopt0 := w.TotalStats().MaintAdopt
	for range 3 {
		w.Tick(1)
	}
	setMovers(w, movers, rng, false)

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
	checkFields(t, w, srcs)
}

// sustainedPendingPerCopy bounds the radio's backlog while a tenth of
// the nodes never stop moving.
const sustainedPendingPerCopy = 2

// scale adds the cases too slow for every run, such as the 2,500-node
// sustained-motion world: go test ./internal/emulator -run Sustained -scale.
var scale = flag.Bool("scale", false, "also run the large cases of the mobility bounds")

// TestMobilitySustainedBounded bounds maintenance under motion that
// does not stop: on the storm's grid, 10 % of the nodes move every tick,
// and the radio never holds more than sustainedPendingPerCopy packets
// per copy. Then the movers freeze, the world settles and every field
// must be exact. With one announcement per packet instead of one per
// round, every 400-node seed passes the bound within the first two
// ticks.
func TestMobilitySustainedBounded(t *testing.T) {
	type size struct{ nodes, ticks int }
	sizes := []size{{400, 200}}
	if *scale {
		sizes = append(sizes, size{2500, 100})
	}
	for _, sz := range sizes {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("n%d/seed%d", sz.nodes, seed), func(t *testing.T) {
				t.Parallel()
				w, srcs, rng := stormWorld(t, sz.nodes, seed)
				movers := rng.Perm(sz.nodes)[:sz.nodes/10]
				setMovers(w, movers, rng, true)
				copies := sz.nodes * stormFields
				peak := 0
				for tick := 1; tick <= sz.ticks; tick++ {
					w.Tick(1)
					peak = max(peak, w.Sim().Pending())
					if peak > copies*sustainedPendingPerCopy {
						t.Fatalf("%d packets pending at tick %d, bound %d per copy",
							peak, tick, sustainedPendingPerCopy)
					}
				}
				setMovers(w, movers, rng, false)
				w.Settle(1 << 20)
				t.Logf("peak %.2f pending per copy", float64(peak)/float64(copies))
				checkFields(t, w, srcs)
			})
		}
	}
}
