package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// newShuffledNet builds a test network whose radio delivers each
// round's packets in a seeded random order.
func newShuffledNet(t *testing.T, g *topology.Graph, seed int64) *testNet {
	t.Helper()
	sim := transport.NewSim(g, transport.SimConfig{Shuffle: true, Seed: seed})
	tn := &testNet{t: t, sim: sim, graph: g, nodes: make(map[tuple.NodeID]*core.Node)}
	for _, id := range g.Nodes() {
		id := id
		ep := sim.Attach(id, nil)
		n := core.New(ep)
		n.SetLocalizer(space.FuncLocalizer(func() (space.Point, bool) {
			return g.Position(id)
		}))
		sim.Bind(id, n)
		tn.nodes[id] = n
	}
	return tn
}

// TestGradientConvergesUnderAnyDeliveryOrder is the §6 "absence of
// critical races" check: the distributed structure must converge to the
// same BFS oracle whatever order the radio delivers packets in, both
// during the initial build and across perturbations.
func TestGradientConvergesUnderAnyDeliveryOrder(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := topology.Grid(5, 5, 1)
			tn := newShuffledNet(t, g, seed)
			src := topology.NodeName(0)
			if _, err := tn.node(src).Inject(pattern.NewGradient("f")); err != nil {
				t.Fatal(err)
			}
			tn.quiesce()
			tn.assertGradientMatchesBFS(src, "f", math.Inf(1))

			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3; i++ {
				a := topology.NodeName(rng.Intn(25))
				nbrs := g.Neighbors(a)
				if len(nbrs) == 0 {
					continue
				}
				b := nbrs[rng.Intn(len(nbrs))]
				g.RemoveEdge(a, b)
				if !g.Connected() {
					g.AddEdge(a, b)
					continue
				}
				g.AddEdge(a, b)
				tn.sim.RemoveEdge(a, b)
				tn.quiesce()
				tn.sim.AddEdge(a, b)
				tn.quiesce()
			}
			tn.assertGradientMatchesBFS(src, "f", math.Inf(1))
		})
	}
}

// TestDownhillDeliveryUnderAnyOrder checks that message routing is
// order-independent too.
func TestDownhillDeliveryUnderAnyOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := topology.Grid(4, 4, 1)
		tn := newShuffledNet(t, g, seed)
		dst := topology.NodeName(0)
		src := topology.NodeName(15)
		if _, err := tn.node(dst).Inject(pattern.NewGradient("d")); err != nil {
			t.Fatal(err)
		}
		tn.quiesce()
		if _, err := tn.node(src).Inject(pattern.NewDownhill("d").StrictSlope()); err != nil {
			t.Fatal(err)
		}
		tn.quiesce()
		if got := len(tn.node(dst).Read(tuple.Match(pattern.KindDownhill))); got != 1 {
			t.Errorf("seed %d: delivered %d", seed, got)
		}
	}
}

// TestConcurrentAPIUse hammers one node's API from many goroutines
// while packets arrive, for the race detector.
func TestConcurrentAPIUse(t *testing.T) {
	g := topology.Line(3)
	tn := newTestNet(t, g)
	n := tn.node(topology.NodeName(1))

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Packet pressure from a neighbor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := tn.node(topology.NodeName(0))
		for i := 0; i < 50; i++ {
			if _, err := src.Inject(pattern.NewFlood(fmt.Sprintf("n%d", i))); err != nil {
				t.Error(err)
				return
			}
			tn.sim.Step()
		}
		close(stop)
	}()

	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				switch i % 4 {
				case 0:
					if _, err := n.Inject(pattern.NewLocal(fmt.Sprintf("w%d-%d", w, i))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					n.Read(tuple.Match(pattern.KindFlood))
				case 2:
					sub := n.Subscribe(tuple.MatchAll(), func(core.Event) {})
					n.Unsubscribe(sub)
				case 3:
					n.Neighbors()
					n.Stats()
					n.StoreSize()
				}
			}
		}()
	}
	wg.Wait()
	tn.quiesce()
}
