package core_test

import (
	"errors"
	"math"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// denyOp builds a policy rejecting one operation for tuples with the
// given application name.
func denyOp(op core.Op, name string) core.Policy {
	return core.PolicyFunc(func(o core.Op, _ tuple.NodeID, t tuple.Tuple) bool {
		if o != op || t == nil {
			return true
		}
		return t.Content().GetString("name") != name
	})
}

func TestPolicyDeniesInject(t *testing.T) {
	g := topology.Line(2)
	tn := newTestNet(t, g, core.WithPolicy(denyOp(core.OpInject, "secret")))
	n := tn.node(topology.NodeName(0))
	if _, err := n.Inject(pattern.NewFlood("secret")); !errors.Is(err, core.ErrDenied) {
		t.Errorf("inject = %v, want ErrDenied", err)
	}
	if _, err := n.Inject(pattern.NewFlood("public")); err != nil {
		t.Errorf("allowed inject failed: %v", err)
	}
	if n.Stats().Denied != 1 {
		t.Errorf("Denied = %d", n.Stats().Denied)
	}
}

func TestPolicyFiltersAcceptAtBoundary(t *testing.T) {
	// Node 1 refuses "secret" tuples from the network: it neither
	// stores nor relays them, so node 2 never sees them either.
	g := topology.Line(3)
	tn := newTestNet(t, g, core.WithPolicy(denyOp(core.OpAccept, "secret")))
	src := tn.node(topology.NodeName(0))
	if _, err := src.Inject(pattern.NewFlood("secret")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Inject(pattern.NewFlood("public")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	mid := tn.node(topology.NodeName(1))
	far := tn.node(topology.NodeName(2))
	if len(mid.Read(pattern.ByName(pattern.KindFlood, "secret"))) != 0 {
		t.Error("boundary stored denied tuple")
	}
	if len(far.Read(pattern.ByName(pattern.KindFlood, "secret"))) != 0 {
		t.Error("denied tuple leaked past the boundary")
	}
	if len(far.Read(pattern.ByName(pattern.KindFlood, "public"))) != 1 {
		t.Error("allowed tuple blocked")
	}
}

func TestPolicyFiltersReadAndEvents(t *testing.T) {
	g := topology.Line(2)
	tn := newTestNet(t, g, core.WithPolicy(denyOp(core.OpRead, "hidden")))
	n := tn.node(topology.NodeName(1))
	fired := 0
	n.Subscribe(tuple.Match(pattern.KindFlood), func(core.Event) { fired++ })

	src := tn.node(topology.NodeName(0))
	if _, err := src.Inject(pattern.NewFlood("hidden")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Inject(pattern.NewFlood("visible")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()

	// The hidden tuple is stored (it may still relay) but unreadable.
	if got := n.Read(tuple.Match(pattern.KindFlood)); len(got) != 1 ||
		got[0].Content().GetString("name") != "visible" {
		t.Errorf("Read = %v", got)
	}
	if fired != 1 {
		t.Errorf("events fired = %d, want 1 (hidden arrival suppressed)", fired)
	}
}

func TestPolicyDeniesDelete(t *testing.T) {
	g := topology.Line(2)
	tn := newTestNet(t, g, core.WithPolicy(denyOp(core.OpDelete, "keep")))
	n := tn.node(topology.NodeName(0))
	if _, err := n.Inject(pattern.NewFlood("keep")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Inject(pattern.NewFlood("scrap")); err != nil {
		t.Fatal(err)
	}
	removed := n.Delete(tuple.Match(pattern.KindFlood))
	if len(removed) != 1 || removed[0].Content().GetString("name") != "scrap" {
		t.Errorf("Delete = %v", removed)
	}
	if len(n.Read(pattern.ByName(pattern.KindFlood, "keep"))) != 1 {
		t.Error("protected tuple was deleted")
	}
}

// TestPolicyDeniesDigestSupport: refresh digests carry maintained
// values inline and must pass the same OpAccept gate as the full
// announcements they replace. Triangle 0-1-2 where everyone refuses
// gradient state from node 2: once edge 0-1 breaks, node 1's only
// remaining route runs through node 2, so node 1 must withdraw its copy
// rather than adopt support from node 2's digests.
func TestPolicyDeniesDigestSupport(t *testing.T) {
	g := topology.Ring(3)
	banned := topology.NodeName(2)
	tn := newTestNet(t, g, core.WithPolicy(
		core.PolicyFunc(func(op core.Op, requester tuple.NodeID, t tuple.Tuple) bool {
			return op != core.OpAccept || requester != banned
		})))
	src := topology.NodeName(0)
	injectGradient(t, tn, src, "f", math.Inf(1))
	refreshAll(tn) // digest-driven maintenance from here on

	tn.sim.RemoveEdge(src, topology.NodeName(1))
	tn.quiesce()
	for i := 0; i < 3; i++ {
		refreshAll(tn)
	}
	if v, have := tn.gradVal(topology.NodeName(1), pattern.KindGradient, "f"); have {
		t.Errorf("node 1 holds val %v via policy-denied support from node 2", v)
	}
	// The allowed side of the structure is untouched.
	if v, have := tn.gradVal(banned, pattern.KindGradient, "f"); !have || v != 1 {
		t.Errorf("node 2 = %v, %v; want val 1", v, have)
	}
}

// TestPolicyHidesStructureFromSensing: a Downhill senses its structure
// through the same OpRead gate as Read. With the inbox gradient hidden
// on every node the message finds no slope anywhere, so it floods — the
// far end of the line, three hops uphill, hears it — and the destination
// does not take it. Each sensing of the hidden copy is one counted
// denial: three per first visit (Evolve, ShouldStore, ShouldPropagate),
// two at the injecting node (no Evolve), one per duplicate arrival
// (Evolve only).
func TestPolicyHidesStructureFromSensing(t *testing.T) {
	g := topology.Line(6)
	tn := newTestNet(t, g, core.WithPolicy(core.PolicyFunc(func(op core.Op, _ tuple.NodeID, t tuple.Tuple) bool {
		return op != core.OpRead || t.Kind() != pattern.KindGradient
	})))
	dst, src, far := topology.NodeName(5), topology.NodeName(3), topology.NodeName(0)
	injectGradient(t, tn, dst, "inbox", math.Inf(1))
	denied := func() (sum int64) {
		for _, id := range g.Nodes() {
			sum += tn.node(id).Stats().Denied
		}
		return sum
	}
	before, farIn := denied(), tn.node(far).Stats().PacketsIn
	if _, err := tn.node(src).Inject(pattern.NewDownhill("inbox", tuple.S("body", "hi"))); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	if tn.node(far).Stats().PacketsIn == farIn {
		t.Error("the message descended a structure the policy hides: the far side never heard it")
	}
	if got := tn.node(dst).StoreSize(); got != 1 {
		t.Errorf("destination holds %d tuples, want only its gradient: it sensed the hidden value 0", got)
	}
	// Node 3 injects (2) and hears two duplicates (2); the other five take
	// a first visit (15), and nodes 1, 2 and 4 a duplicate each (3).
	if got := denied() - before; got != 22 {
		t.Errorf("sensing counted %d denials, want 22", got)
	}
}

func TestPolicyDeniesRetract(t *testing.T) {
	g := topology.Line(3)
	tn := newTestNet(t, g, core.WithPolicy(
		core.PolicyFunc(func(op core.Op, requester tuple.NodeID, t tuple.Tuple) bool {
			if op != core.OpRetract {
				return true
			}
			return t != nil && t.ID().Node == requester
		})))
	src := tn.node(topology.NodeName(0))
	other := tn.node(topology.NodeName(2))
	id, err := src.Inject(pattern.NewGradient("f"))
	if err != nil {
		t.Fatal(err)
	}
	tn.quiesce()

	// A non-owner cannot retract the structure.
	other.Retract(id)
	tn.quiesce()
	if _, have := tn.gradVal(topology.NodeName(1), pattern.KindGradient, "f"); !have {
		t.Error("non-owner retract succeeded")
	}
	// The owner can.
	src.Retract(id)
	tn.quiesce()
	if _, have := tn.gradVal(topology.NodeName(1), pattern.KindGradient, "f"); have {
		t.Error("owner retract failed")
	}
}

// TestDenyTracedBeforeReturn: a denied Inject or Retract and a
// policy-filtered Read or ReadOne hand their deny record to the tracer
// before the call returns, not at the node's next delivering call.
func TestDenyTracedBeforeReturn(t *testing.T) {
	var denied []tuple.ID
	tracer := func(ev core.TraceEvent) {
		if ev.Kind == core.TraceDeny {
			denied = append(denied, ev.ID)
		}
	}
	policy := core.PolicyFunc(func(op core.Op, _ tuple.NodeID, t tuple.Tuple) bool {
		switch op {
		case core.OpInject:
			return t.Content().GetString("name") != "secret"
		case core.OpRead:
			return t.Content().GetString("name") != "hidden"
		}
		return op != core.OpRetract
	})
	tn := newTestNet(t, topology.Line(1), core.WithTracer(tracer), core.WithPolicy(policy))
	n := tn.node(topology.NodeName(0))
	expect := func(call string, want int) {
		t.Helper()
		if len(denied) != want {
			t.Fatalf("after %s: the tracer saw %d deny records, want %d", call, len(denied), want)
		}
	}

	if _, err := n.Inject(pattern.NewFlood("secret")); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("inject = %v, want ErrDenied", err)
	}
	expect("a denied Inject", 1)
	id, err := n.Inject(pattern.NewFlood("hidden"))
	if err != nil {
		t.Fatal(err)
	}
	expect("an allowed Inject", 1)
	if got := n.Read(tuple.Match(pattern.KindFlood)); len(got) != 0 {
		t.Fatalf("Read = %v, want the hidden flood filtered", got)
	}
	expect("a filtered Read", 2)
	if _, ok := n.ReadOne(tuple.Match(pattern.KindFlood)); ok {
		t.Fatal("ReadOne returned the hidden flood")
	}
	expect("a filtered ReadOne", 3)
	n.Retract(id)
	expect("a denied Retract", 4)
	if denied[1] != id || denied[2] != id || denied[3] != id {
		t.Errorf("deny records name %v, want the hidden flood %v after the first", denied, id)
	}
}
