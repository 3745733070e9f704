package core_test

import (
	"testing"

	"tota/internal/agg"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// injectReading stores one node-local numeric reading at a node.
func injectReading(t *testing.T, tn *testNet, at tuple.NodeID, v float64) tuple.ID {
	t.Helper()
	id, err := tn.node(at).Inject(pattern.NewLocal("reading", tuple.F("v", v)))
	if err != nil {
		t.Fatalf("Inject reading: %v", err)
	}
	return id
}

var readingSel = tuple.Selector{Kind: pattern.KindLocal, Name: "reading", Field: "v"}

// injectQuery injects an aggregation query at src and quiesces the
// structure build.
func injectQuery(t *testing.T, tn *testNet, src tuple.NodeID, q *agg.Query) tuple.ID {
	t.Helper()
	id, err := tn.node(src).Inject(q)
	if err != nil {
		t.Fatalf("Inject query: %v", err)
	}
	tn.quiesce()
	return id
}

func TestAggConvergecastComputesExactAggregates(t *testing.T) {
	g := topology.Line(5)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	vals := []float64{3, -2, 8, 8, 5}
	for i, v := range vals {
		injectReading(t, tn, topology.NodeName(i), v)
	}

	ids := map[agg.Op]tuple.ID{}
	for _, op := range []agg.Op{agg.Count, agg.Sum, agg.Min, agg.Max, agg.Avg} {
		ids[op] = injectQuery(t, tn, src, agg.NewQuery("q-"+op.String(), op, readingSel))
	}

	// One epoch per tree level plus slack: partials pipeline one hop per
	// refresh.
	for i := 0; i < len(vals)+2; i++ {
		refreshAll(tn)
	}

	want := map[agg.Op]float64{agg.Count: 5, agg.Sum: 22, agg.Min: -2, agg.Max: 8, agg.Avg: 22.0 / 5}
	for op, id := range ids {
		res, ok := tn.node(src).AggResult(id)
		if !ok {
			t.Fatalf("%s: no result", op)
		}
		if res.Value() != want[op] {
			t.Errorf("%s = %v, want %v", op, res.Value(), want[op])
		}
		if res.Partial.Count != 5 {
			t.Errorf("%s: count = %d, want 5", op, res.Partial.Count)
		}
	}

	// The answer keeps tracking the network: a new reading shows up
	// within a few epochs.
	injectReading(t, tn, topology.NodeName(4), 100)
	for i := 0; i < len(vals)+2; i++ {
		refreshAll(tn)
	}
	res, _ := tn.node(src).AggResult(ids[agg.Sum])
	if res.Value() != 122 {
		t.Errorf("sum after new reading = %v, want 122", res.Value())
	}
}

func TestAggCountDistinctSurvivesReplication(t *testing.T) {
	// Every node reports one of only three distinct values; the sketch
	// estimate at the source must track 3, not the node count.
	g := topology.Grid(4, 4, 1)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	for i := 0; i < 16; i++ {
		injectReading(t, tn, topology.NodeName(i), float64(i%3))
	}
	id := injectQuery(t, tn, src, agg.NewQuery("distinct", agg.CountDistinct, readingSel))
	for i := 0; i < 10; i++ {
		refreshAll(tn)
	}
	res, ok := tn.node(src).AggResult(id)
	if !ok {
		t.Fatal("no result")
	}
	if res.Partial.Count != 16 {
		t.Errorf("raw count = %d, want 16", res.Partial.Count)
	}
	if v := res.Value(); v < 2.5 || v > 3.5 {
		t.Errorf("distinct estimate = %v, want ~3", v)
	}
}

func TestAggPartialRedeliveryIsIdempotent(t *testing.T) {
	// Duplicate frames must overwrite their staging slot, not add to it:
	// the duplicate-insensitivity argument for the exact aggregates.
	g := topology.Line(2)
	tn := newTestNet(t, g)
	src, child := topology.NodeName(0), topology.NodeName(1)
	injectReading(t, tn, src, 10)
	injectReading(t, tn, child, 20)
	id := injectQuery(t, tn, src, agg.NewQuery("sum", agg.Sum, readingSel))
	for i := 0; i < 4; i++ {
		refreshAll(tn)
	}
	res, ok := tn.node(src).AggResult(id)
	if !ok || res.Value() != 30 {
		t.Fatalf("baseline sum = %+v, %v (want 30)", res, ok)
	}

	// A partial reporting count=1 sum=100.
	p := agg.NewPartial()
	p.Observe(agg.Sum, 100)
	frame, err := wire.Encode(wire.Message{Type: wire.MsgPartial, ID: id, Partial: p})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// From a node that is not a child in the query's tree, it is not
	// folded at all.
	for i := 0; i < 3; i++ {
		tn.node(src).HandlePacket("phantom", frame)
	}
	refreshAll(tn)
	res, _ = tn.node(src).AggResult(id)
	if res.Value() != 30 || res.Partial.Count != 2 {
		t.Errorf("after a non-child's partial: sum=%v count=%d, want 30 and 2", res.Value(), res.Partial.Count)
	}

	// From the real child, delivered three times, exactly one copy
	// takes the child's slot.
	for i := 0; i < 3; i++ {
		tn.node(src).HandlePacket(child, frame)
	}
	tn.node(src).Refresh()
	tn.quiesce()
	res, _ = tn.node(src).AggResult(id)
	if res.Value() != 110 {
		t.Errorf("sum after triple redelivery = %v, want 110", res.Value())
	}
	if res.Partial.Count != 2 {
		t.Errorf("count after triple redelivery = %d, want 2", res.Partial.Count)
	}
}

func TestAggReparentDoesNotOverCount(t *testing.T) {
	// A child that re-parents leaves its old parent's fold as soon as
	// its support row names the new parent, so the source never counts
	// the moved subtree twice.
	g := topology.Ring(4)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	for i := 0; i < 4; i++ {
		injectReading(t, tn, topology.NodeName(i), 1)
	}
	id := injectQuery(t, tn, src, agg.NewQuery("sum", agg.Sum, readingSel))
	for i := 0; i < 6; i++ {
		refreshAll(tn)
	}
	if res, _ := tn.node(src).AggResult(id); res.Value() != 4 || res.Partial.Count != 4 {
		t.Fatalf("settled sum=%v count=%d, want 4 and 4", res.Value(), res.Partial.Count)
	}

	tn.sim.RemoveEdge(src, topology.NodeName(1))
	tn.quiesce()
	var res agg.Result
	for epoch := 1; epoch <= 12; epoch++ {
		refreshAll(tn)
		res, _ = tn.node(src).AggResult(id)
		if res.Value() > 4 || res.Partial.Count > 4 {
			t.Errorf("epoch %d after the cut: sum=%v count=%d, want at most 4", epoch, res.Value(), res.Partial.Count)
		}
	}
	if res.Value() != 4 || res.Partial.Count != 4 {
		t.Errorf("final sum=%v count=%d, want 4 and 4", res.Value(), res.Partial.Count)
	}
}

func TestAggCrashedChildTimesOutOfFold(t *testing.T) {
	// When a subtree goes silent its last partial must age out of the
	// parent's fold (staleness horizon = anti-entropy staleness plus the
	// suspicion window) instead of freezing into the result forever.
	g := topology.Line(3)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	vals := []float64{1, 2, 4}
	for i, v := range vals {
		injectReading(t, tn, topology.NodeName(i), v)
	}
	id := injectQuery(t, tn, src, agg.NewQuery("sum", agg.Sum, readingSel))
	for i := 0; i < 5; i++ {
		refreshAll(tn)
	}
	if res, _ := tn.node(src).AggResult(id); res.Value() != 7 {
		t.Fatalf("pre-crash sum = %v, want 7", res.Value())
	}

	// Silence the far node both ways: its partials stop flowing but no
	// neighbor event fires — the pure timeout path.
	far, mid := topology.NodeName(2), topology.NodeName(1)
	tn.sim.SetFaults(transport.Faults{LinkLoss: map[transport.Link]float64{
		{From: far, To: mid}: 1,
		{From: mid, To: far}: 1,
	}})
	for i := 0; i < 8; i++ {
		refreshAll(tn)
	}
	res, ok := tn.node(src).AggResult(id)
	if !ok {
		t.Fatal("result vanished")
	}
	if res.Value() != 3 {
		t.Errorf("post-crash sum = %v, want 3 (crashed child still counted)", res.Value())
	}
	if res.Partial.Count != 2 {
		t.Errorf("post-crash count = %d, want 2", res.Partial.Count)
	}
}

func TestAggCollectModeMatchesCombiningButCostsMore(t *testing.T) {
	build := func(collect bool) (sum float64, count int64, partials int64) {
		g := topology.Line(4)
		tn := newTestNet(t, g)
		src := topology.NodeName(0)
		for i := 0; i < 4; i++ {
			injectReading(t, tn, topology.NodeName(i), float64(i+1))
		}
		q := agg.NewQuery("sum", agg.Sum, readingSel)
		if collect {
			q = q.CollectAll()
		}
		id := injectQuery(t, tn, src, q)
		for i := 0; i < 7; i++ {
			refreshAll(tn)
		}
		res, ok := tn.node(src).AggResult(id)
		if !ok {
			t.Fatal("no result")
		}
		return res.Value(), res.Partial.Count, tn.totalStats().PartialsOut
	}
	cSum, cCount, combinePartials := build(false)
	aSum, aCount, collectPartials := build(true)
	if cSum != 10 || aSum != 10 || cCount != 4 || aCount != 4 {
		t.Errorf("results differ from oracle: combine (%v,%d) collect (%v,%d)", cSum, cCount, aSum, aCount)
	}
	if collectPartials <= combinePartials {
		t.Errorf("collect-all sent %d partials, combining %d: expected strictly more",
			collectPartials, combinePartials)
	}
}

func TestAggRetractDropsQueryState(t *testing.T) {
	g := topology.Line(3)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	injectReading(t, tn, topology.NodeName(1), 5)
	id := injectQuery(t, tn, src, agg.NewQuery("sum", agg.Sum, readingSel))
	for i := 0; i < 4; i++ {
		refreshAll(tn)
	}
	if _, ok := tn.node(src).AggResult(id); !ok {
		t.Fatal("no result before retract")
	}
	tn.node(src).Retract(id)
	tn.quiesce()
	refreshAll(tn)
	if _, ok := tn.node(src).AggResult(id); ok {
		t.Error("result survived retraction")
	}
	for _, nid := range tn.graph.Nodes() {
		if got := tn.node(nid).Read(agg.ByName("sum")); len(got) != 0 {
			t.Errorf("node %s still stores retracted query", nid)
		}
	}
}
