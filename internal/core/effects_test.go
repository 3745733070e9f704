package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

var update = flag.Bool("update", false, "rewrite testdata/effect_order.golden from a fresh run")

// TestEffectOrderGolden pins the order in which a node's decisions leave
// it: every tracer call and every reaction call of a seeded 3×3 grid,
// logged to one list in the order they happen. The scenario covers each
// decision that produces a trace record, an event, or both — inject,
// store, supersede, adopt, withdraw, retract, lease expiry, Delete,
// neighbour down and up — plus a reaction that injects a reply from
// inside the dispatch, so a nested call's records interleave with the
// outer batch.
func TestEffectOrderGolden(t *testing.T) {
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	tracer := func(ev core.TraceEvent) {
		logf("trace %s %s %s %g", ev.Kind, ev.Node, ev.ID, ev.Value)
	}

	g := topology.Grid(3, 3, 1)
	sim := transport.NewSim(g, transport.SimConfig{Shuffle: true, Seed: 32})
	tn := &testNet{t: t, sim: sim, graph: g, nodes: make(map[tuple.NodeID]*core.Node)}
	for _, id := range g.Nodes() {
		n := core.New(sim.Attach(id, nil), core.WithTracer(tracer))
		sim.Bind(id, n)
		tn.nodes[id] = n
	}
	node := func(i int) *core.Node { return tn.node(topology.NodeName(i)) }
	for i := 0; i < 9; i++ {
		node(i).Subscribe(tuple.MatchAll(), func(ev core.Event) {
			val := "-"
			if m, ok := ev.Tuple.(tuple.Maintained); ok {
				val = fmt.Sprint(m.Value())
			} else if ev.Peer != "" {
				val = string(ev.Peer)
			}
			logf("event %s %s %s %s", ev.Type, ev.Node, ev.Tuple.ID(), val)
		})
	}
	responder := node(8)
	responder.Subscribe(pattern.ByName(pattern.KindFlood, "ask"), func(ev core.Event) {
		if ev.Type != core.TupleArrived {
			return
		}
		logf("react %s %s", ev.Node, ev.Tuple.ID())
		if _, err := responder.Inject(pattern.NewFlood("reply").Within(1)); err != nil {
			t.Errorf("reply inject: %v", err)
		}
	})
	step := func(name string) {
		tn.quiesce()
		logf("-- %s", name)
	}

	grad, err := node(0).Inject(pattern.NewGradient("g"))
	if err != nil {
		t.Fatal(err)
	}
	step("gradient built")
	sim.RemoveEdge(topology.NodeName(0), topology.NodeName(1))
	step("link n0-n1 down: adopt around it")
	path, err := node(0).Inject(pattern.NewPath("p"))
	if err != nil {
		t.Fatal(err)
	}
	step("path built around the missing link")
	sim.AddEdge(topology.NodeName(0), topology.NodeName(1))
	step("link n0-n1 up: catch-up supersedes the longer routes")
	sim.RemoveEdge(topology.NodeName(7), topology.NodeName(8))
	sim.RemoveEdge(topology.NodeName(5), topology.NodeName(8))
	step("n8 isolated: withdraw")
	sim.AddEdge(topology.NodeName(7), topology.NodeName(8))
	sim.AddEdge(topology.NodeName(5), topology.NodeName(8))
	step("n8 back: store again")
	if _, err := node(0).Inject(pattern.NewFlood("ask")); err != nil {
		t.Fatal(err)
	}
	step("ask flooded, n8 replied from its reaction")
	if _, err := node(4).Inject(pattern.NewFlood("lease").Expires(5)); err != nil {
		t.Fatal(err)
	}
	step("lease flooded")
	for i := 0; i < 9; i++ {
		node(i).SweepExpired(10)
	}
	step("lease expired")
	node(2).Delete(pattern.ByName(pattern.KindFlood, "ask"))
	step("ask deleted at n2")
	node(0).Retract(path)
	step("path retracted")
	node(0).Retract(grad)
	step("gradient retracted")

	got := strings.Join(log, "\n") + "\n"
	const golden = "testdata/effect_order.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("effect order diverges at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("effect order has %d lines, golden %d", len(gl), len(wl))
	}
}
