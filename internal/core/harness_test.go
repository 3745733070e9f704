package core_test

import (
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// testNet wires a middleware node onto every node of a topology graph
// over a simulated radio, the standard fixture for engine tests.
type testNet struct {
	t     *testing.T
	sim   *transport.Sim
	graph *topology.Graph
	nodes map[tuple.NodeID]*core.Node
}

func newTestNet(t *testing.T, g *topology.Graph, opts ...core.Option) *testNet {
	t.Helper()
	return newTestNetOn(t, g, nil, opts...)
}

// newTestNetOn is newTestNet with each node's endpoint passed through
// wrap (nil keeps the bare endpoint), so a test can stand a different
// transport.Sender between the engine and the simulated radio.
func newTestNetOn(t *testing.T, g *topology.Graph, wrap func(*transport.SimEndpoint) transport.Sender, opts ...core.Option) *testNet {
	t.Helper()
	sim := transport.NewSim(g, transport.SimConfig{})
	tn := &testNet{t: t, sim: sim, graph: g, nodes: make(map[tuple.NodeID]*core.Node)}
	for _, id := range g.Nodes() {
		id := id
		ep := sim.Attach(id, nil)
		var tr transport.Sender = ep
		if wrap != nil {
			tr = wrap(ep)
		}
		n := core.New(tr, opts...)
		n.SetLocalizer(space.FuncLocalizer(func() (space.Point, bool) {
			return g.Position(id)
		}))
		sim.Bind(id, n)
		tn.nodes[id] = n
	}
	return tn
}

// newLateNode creates a middleware node for an endpoint attached after
// network construction (a newcomer) and registers it with the fixture.
func newLateNode(tn *testNet, ep *transport.SimEndpoint) *core.Node {
	n := core.New(ep)
	tn.nodes[ep.Self()] = n
	return n
}

// totalStats sums the middleware counters across every node in the
// fixture — the network-wide traffic ledger refresh tests assert on.
func (tn *testNet) totalStats() core.Stats {
	var s core.Stats
	for _, n := range tn.nodes {
		s = s.Add(n.Stats())
	}
	return s
}

// node returns the middleware node with the given id.
func (tn *testNet) node(id tuple.NodeID) *core.Node {
	n, ok := tn.nodes[id]
	if !ok {
		tn.t.Fatalf("no node %s", id)
	}
	return n
}

// quiesce runs the network until no packets are in flight.
func (tn *testNet) quiesce() {
	tn.t.Helper()
	tn.sim.RunUntilQuiet(100000)
	if tn.sim.Pending() != 0 {
		tn.t.Fatal("network did not quiesce")
	}
}

// gradVal returns the gradient value with the given name at a node.
func (tn *testNet) gradVal(id tuple.NodeID, kind, name string) (float64, bool) {
	ts := tn.node(id).Read(pattern.ByName(kind, name))
	if len(ts) == 0 {
		return 0, false
	}
	m, ok := ts[0].(tuple.Maintained)
	if !ok {
		tn.t.Fatalf("tuple %v is not maintained", ts[0])
	}
	return m.Value(), true
}

// assertGradientMatchesBFS checks that the named gradient equals the
// BFS-distance oracle from src at every reachable node, and is absent
// beyond maxVal.
func (tn *testNet) assertGradientMatchesBFS(src tuple.NodeID, name string, maxVal float64) {
	tn.t.Helper()
	dist := tn.graph.BFSDistances(src)
	for _, id := range tn.graph.Nodes() {
		want, reachable := dist[id]
		val, have := tn.gradVal(id, pattern.KindGradient, name)
		switch {
		case reachable && float64(want) <= maxVal:
			if !have {
				tn.t.Errorf("node %s: gradient %q missing (want %d)", id, name, want)
			} else if val != float64(want) {
				tn.t.Errorf("node %s: gradient %q = %v, want %d", id, name, val, want)
			}
		default:
			if have {
				tn.t.Errorf("node %s: gradient %q = %v, want absent", id, name, val)
			}
		}
	}
}
