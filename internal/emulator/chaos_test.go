package emulator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// TestChaosChurnKeepsStructureCoherent drives a long randomized churn
// sequence — node crashes, node joins, link drops and link additions —
// against a maintained gradient, checking after every perturbation that
// the distributed structure equals the BFS oracle. This is the paper's
// §3 adaptivity claim under sustained, compounding dynamics rather than
// single perturbations.
func TestChaosChurnKeepsStructureCoherent(t *testing.T) {
	const rounds = 60
	rng := rand.New(rand.NewSource(2024))
	g := topology.Grid(6, 6, 1)
	w := New(Config{Graph: g})
	src := topology.NodeName(0)
	if _, err := w.Node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	w.Settle(100000)

	joined := 0
	for round := 0; round < rounds; round++ {
		switch rng.Intn(4) {
		case 0: // crash a random non-source node, if connectivity survives
			nodes := g.Nodes()
			id := nodes[rng.Intn(len(nodes))]
			if id == src {
				continue
			}
			c := g.Clone()
			c.RemoveNode(id)
			if !c.Connected() {
				continue
			}
			w.RemoveNode(id)
		case 1: // join a new node next to a random anchor
			nodes := g.Nodes()
			anchor := nodes[rng.Intn(len(nodes))]
			joined++
			id := tuple.NodeID(fmt.Sprintf("join%03d", joined))
			p, _ := g.Position(anchor)
			w.AddNode(id, space.Point{X: p.X + 0.1, Y: p.Y + 0.1})
			w.AddEdge(anchor, id)
		case 2: // drop a random link, if connectivity survives
			nodes := g.Nodes()
			a := nodes[rng.Intn(len(nodes))]
			nbrs := g.Neighbors(a)
			if len(nbrs) == 0 {
				continue
			}
			b := nbrs[rng.Intn(len(nbrs))]
			g.RemoveEdge(a, b)
			connected := g.Connected()
			g.AddEdge(a, b)
			if !connected {
				continue
			}
			w.RemoveEdge(a, b)
		case 3: // add a random shortcut
			nodes := g.Nodes()
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			if a == b || g.HasEdge(a, b) {
				continue
			}
			w.AddEdge(a, b)
		}
		w.Settle(100000)
		meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", src, math.Inf(1))
		if meanAbs != 0 || missing != 0 || extra != 0 {
			t.Fatalf("round %d: structure diverged: err=%v missing=%d extra=%d",
				round, meanAbs, missing, extra)
		}
	}
}

// TestChaosWithMobilityAndRefresh adds continuous mobility and packet
// loss on top of churn; with anti-entropy the structure must still be
// exact once the dust settles.
func TestChaosWithMobilityAndRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := topology.ConnectedRandomGeometric(35, 10, 3, rng, 200)
	if g == nil {
		t.Fatal("no connected layout")
	}
	w := New(Config{Graph: g, RadioRange: 3, Loss: 0.15, RefreshEvery: 4, Seed: 7})
	src := topology.NodeName(0)
	if _, err := w.Node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	// Random waypoint on a third of the nodes; the source stays put so
	// the oracle target is stable.
	bounds := space.Rect{Max: space.Point{X: 10, Y: 10}}
	for i, id := range g.Nodes() {
		if id == src || i%3 != 0 {
			continue
		}
		p, _ := g.Position(id)
		w.SetMover(id, newChaosWalker(p, bounds, rng))
	}
	for i := 0; i < 120; i++ {
		w.Tick(0.5)
	}
	// Freeze the world, stop losing packets, run the anti-entropy to
	// convergence.
	w.Sim().SetFaults(transport.Faults{})
	for i := 0; i < 4; i++ {
		w.RefreshAll()
		w.Settle(100000)
	}
	if !g.Connected() {
		t.Skip("mobility disconnected the network; oracle undefined")
	}
	meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", src, math.Inf(1))
	if meanAbs != 0 || missing != 0 || extra != 0 {
		t.Errorf("after chaos: err=%v missing=%d extra=%d", meanAbs, missing, extra)
	}
}

// newChaosWalker returns a mover wandering within bounds.
func newChaosWalker(p space.Point, bounds space.Rect, rng *rand.Rand) *walkerMover {
	return &walkerMover{pos: p, bounds: bounds, rng: rng}
}

type walkerMover struct {
	pos    space.Point
	bounds space.Rect
	rng    *rand.Rand
}

func (m *walkerMover) Pos() space.Point { return m.pos }

func (m *walkerMover) Step(dt float64) space.Point {
	m.pos.X += (m.rng.Float64()*2 - 1) * dt
	m.pos.Y += (m.rng.Float64()*2 - 1) * dt
	m.pos.X = math.Max(m.bounds.Min.X, math.Min(m.bounds.Max.X, m.pos.X))
	m.pos.Y = math.Max(m.bounds.Min.Y, math.Min(m.bounds.Max.Y, m.pos.Y))
	return m.pos
}
