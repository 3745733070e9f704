package core_test

import (
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// newSampledNet wires a shared tracer plus trace sampling into every
// node of a line network.
func newSampledNet(t *testing.T, n int, rate float64, log *traceLog) *testNet {
	t.Helper()
	return newTestNet(t, topology.Line(n), core.WithTracer(log.add), core.WithTraceSampling(rate))
}

// TestTraceContextCausalChain: a sampled gradient over a line must
// yield one trace id shared by every event, a span on every copy event,
// and parent-span links that resolve to a span emitted by the upstream
// node — the causal chain the propagation analyzer reconstructs.
func TestTraceContextCausalChain(t *testing.T) {
	var log traceLog
	tn := newSampledNet(t, 4, 1, &log)
	src := tn.graph.Nodes()[0]
	if _, err := tn.node(src).Inject(pattern.NewGradient("field")); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	tn.quiesce()

	log.mu.Lock()
	defer log.mu.Unlock()
	var traceID uint64
	spanOwner := make(map[uint64]tuple.NodeID)
	for _, ev := range log.events {
		switch ev.Kind {
		case core.TraceInject, core.TraceStore, core.TraceAdopt, core.TraceSupersede:
			if ev.TraceID == 0 {
				t.Fatalf("%s at %s: TraceID = 0, want sampled", ev.Kind, ev.Node)
			}
			if traceID == 0 {
				traceID = ev.TraceID
			} else if ev.TraceID != traceID {
				t.Fatalf("%s at %s: TraceID = %x, want %x", ev.Kind, ev.Node, ev.TraceID, traceID)
			}
			if ev.Span == 0 {
				t.Fatalf("%s at %s: Span = 0", ev.Kind, ev.Node)
			}
			spanOwner[ev.Span] = ev.Node
		}
	}
	if traceID == 0 {
		t.Fatal("no sampled copy events recorded")
	}

	stores := 0
	for _, ev := range log.events {
		if ev.Kind != core.TraceStore && ev.Kind != core.TraceAdopt {
			continue
		}
		stores++
		if ev.Node == src {
			continue
		}
		if ev.ParentSpan == 0 {
			t.Errorf("%s at %s: ParentSpan = 0, want causal link", ev.Kind, ev.Node)
			continue
		}
		owner, ok := spanOwner[ev.ParentSpan]
		if !ok {
			t.Errorf("%s at %s: ParentSpan %x resolves to no recorded span", ev.Kind, ev.Node, ev.ParentSpan)
		} else if owner != ev.From {
			t.Errorf("%s at %s: ParentSpan owned by %s, but From = %s", ev.Kind, ev.Node, owner, ev.From)
		}
	}
	if stores < 3 {
		t.Errorf("store/adopt events = %d, want the gradient on all 4 nodes", stores)
	}

	sends := 0
	for _, ev := range log.events {
		if ev.Kind == core.TraceSend {
			sends++
		}
	}
	if sends == 0 {
		t.Error("no TraceSend events for a sampled announcement")
	}
}

// TestTraceContextSamplingOff pins the off switch: with rate 0 no event
// carries trace identity and no version-2 frame hits the air.
func TestTraceContextSamplingOff(t *testing.T) {
	var log traceLog
	tn := newSampledNet(t, 3, 0, &log)
	src := tn.graph.Nodes()[0]
	if _, err := tn.node(src).Inject(pattern.NewGradient("field")); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	tn.quiesce()

	log.mu.Lock()
	defer log.mu.Unlock()
	for _, ev := range log.events {
		if ev.TraceID != 0 || ev.Span != 0 || ev.ParentSpan != 0 {
			t.Fatalf("unsampled %s at %s carries trace identity: %+v", ev.Kind, ev.Node, ev)
		}
		if ev.Kind == core.TraceSend || ev.Kind == core.TracePull {
			t.Fatalf("unsampled run emitted %s", ev.Kind)
		}
	}
}

// TestTraceContextCrossesUntracedHop: a receiver with sampling disabled
// still honors the sender's sampling decision — the trace context rides
// the announcement, not local configuration.
func TestTraceContextCrossesUntracedHop(t *testing.T) {
	g := topology.Line(2)
	sim := transport.NewSim(g, transport.SimConfig{})
	ids := g.Nodes()
	var log traceLog
	tn := &testNet{t: t, sim: sim, graph: g, nodes: make(map[tuple.NodeID]*core.Node)}
	for i, id := range ids {
		opts := []core.Option{core.WithTracer(log.add)}
		if i == 0 {
			opts = append(opts, core.WithTraceSampling(1))
		}
		ep := sim.Attach(id, nil)
		node := core.New(ep, opts...)
		sim.Bind(id, node)
		tn.nodes[id] = node
	}
	if _, err := tn.node(ids[0]).Inject(pattern.NewGradient("field")); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	tn.quiesce()

	log.mu.Lock()
	defer log.mu.Unlock()
	found := false
	for _, ev := range log.events {
		if ev.Node == ids[1] && (ev.Kind == core.TraceStore || ev.Kind == core.TraceAdopt) {
			found = true
			if ev.TraceID == 0 {
				t.Errorf("store at untraced receiver lost the trace context: %+v", ev)
			}
		}
	}
	if !found {
		t.Error("gradient never stored at the receiver")
	}
}
