package core_test

import (
	"math"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// TestDedupAbsorbsRadioDuplication runs propagation and maintenance on
// a radio that duplicates half its packets: tuple-id dedup (§4.1) must
// keep every node's space exact — one copy per tuple, BFS-correct
// values — with zero application-visible effect.
func TestDedupAbsorbsRadioDuplication(t *testing.T) {
	g := topology.Grid(6, 6, 1)
	sim := transport.NewSim(g, transport.SimConfig{Seed: 3})
	sim.SetFaults(transport.Faults{Dup: 0.5})
	tn := &testNet{t: t, sim: sim, graph: g, nodes: make(map[tuple.NodeID]*core.Node)}
	for _, id := range g.Nodes() {
		ep := sim.Attach(id, nil)
		n := core.New(ep)
		sim.Bind(id, n)
		tn.nodes[id] = n
	}

	src := topology.NodeName(0)
	if _, err := tn.node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.node(src).Inject(pattern.NewFlood("news")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	tn.assertGradientMatchesBFS(src, "f", math.Inf(1))

	dups := int64(0)
	for _, id := range g.Nodes() {
		n := tn.node(id)
		if got := len(n.Read(pattern.ByName(pattern.KindFlood, "news"))); got != 1 {
			t.Errorf("node %s stores %d flood copies", id, got)
		}
		dups += n.Stats().DupDropped
	}
	if dups == 0 {
		t.Error("no duplicates reached the engine — test proves nothing")
	}

	// Perturb under continued duplication; still exact.
	sim.RemoveEdge(topology.NodeName(7), topology.NodeName(8))
	tn.quiesce()
	tn.assertGradientMatchesBFS(src, "f", math.Inf(1))
}
