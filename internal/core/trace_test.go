package core_test

import (
	"strings"
	"sync"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// traceLog collects trace events thread-safely.
type traceLog struct {
	mu     sync.Mutex
	events []core.TraceEvent
}

func (l *traceLog) add(ev core.TraceEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *traceLog) kinds() map[core.TraceKind]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[core.TraceKind]int)
	for _, ev := range l.events {
		out[ev.Kind]++
	}
	return out
}

// newTracedNet wires a shared tracer into every node of a line network.
func newTracedNet(t *testing.T, n int, log *traceLog) *testNet {
	t.Helper()
	return newTestNet(t, topology.Line(n), core.WithTracer(log.add))
}

func TestTracerSeesLifecycle(t *testing.T) {
	var log traceLog
	tn := newTracedNet(t, 4, &log)
	src := tn.node(topology.NodeName(0))

	id, err := src.Inject(pattern.NewGradient("f"))
	if err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	tn.sim.RemoveEdge(topology.NodeName(2), topology.NodeName(3))
	tn.quiesce()
	src.Retract(id)
	tn.quiesce()

	kinds := log.kinds()
	for _, want := range []core.TraceKind{
		core.TraceInject, core.TraceStore, core.TraceWithdraw, core.TraceRetract,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v events: %v", want, kinds)
		}
	}
}

func TestTracerSeesExpiry(t *testing.T) {
	var log traceLog
	tn := newTracedNet(t, 2, &log)
	if _, err := tn.node(topology.NodeName(0)).Inject(pattern.NewFlood("x").Expires(1)); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	tn.node(topology.NodeName(0)).SweepExpired(5)
	if log.kinds()[core.TraceExpire] == 0 {
		t.Error("no expire trace")
	}
}

func TestTraceEventString(t *testing.T) {
	ev := core.TraceEvent{
		Kind:      core.TraceAdopt,
		Node:      "n1",
		ID:        tuple.ID{Node: "src", Seq: 2},
		TupleKind: "tota:gradient",
		From:      "n2",
		Value:     3,
	}
	s := ev.String()
	for _, want := range []string{"n1", "adopt", "src#2", "tota:gradient", "from n2", "val=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	for k := core.TraceInject; k <= core.TracePull; k++ {
		if k.String() == "unknown-trace" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if core.TraceKind(99).String() != "unknown-trace" {
		t.Error("unknown kind misnamed")
	}
}

func TestTracerMayCallBackIntoNode(t *testing.T) {
	// Tracers run outside the lock: calling the API from one must not
	// deadlock.
	g := topology.Line(2)
	sim := transport.NewSim(g, transport.SimConfig{})
	var node *core.Node
	calls := 0
	ep := sim.Attach(topology.NodeName(0), nil)
	node = core.New(ep, core.WithTracer(func(core.TraceEvent) {
		calls++
		node.StoreSize()
		node.Read(tuple.MatchAll())
	}))
	sim.Bind(topology.NodeName(0), node)
	if _, err := node.Inject(pattern.NewLocal("x")); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("tracer never ran")
	}
}
