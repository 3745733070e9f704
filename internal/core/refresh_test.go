package core_test

import (
	"fmt"
	"math"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

func refreshAll(tn *testNet) {
	for _, id := range tn.graph.Nodes() {
		if n, ok := tn.nodes[id]; ok {
			n.Refresh()
		}
	}
	tn.quiesce()
}

func TestRefreshIsIdempotentOnConvergedStructure(t *testing.T) {
	g := topology.Grid(4, 4, 1)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	injectGradient(t, tn, src, "f", math.Inf(1))

	// Warm-up epoch: the first refresh after convergence may broadcast
	// full bytes once per node (nothing has been refresh-announced yet).
	refreshAll(tn)
	tn.assertGradientMatchesBFS(src, "f", math.Inf(1))

	// Steady state: a refresh epoch on a converged structure sends zero
	// full tuples — every node advertises by digest, neighbors verify
	// versions, and nobody pulls.
	before := tn.totalStats()
	deliveredBefore := tn.sim.Stats().Delivered
	refreshAll(tn)
	tn.assertGradientMatchesBFS(src, "f", math.Inf(1))
	after := tn.totalStats()
	if d := after.RefreshAnnounced - before.RefreshAnnounced; d != 0 {
		t.Errorf("converged refresh re-sent %d full tuples, want 0", d)
	}
	if d := after.PullsOut - before.PullsOut; d != 0 {
		t.Errorf("converged refresh triggered %d pulls, want 0", d)
	}
	nodes := int64(len(g.Nodes()))
	if d := after.RefreshSuppressed - before.RefreshSuppressed; d != nodes {
		t.Errorf("suppressed %d announcements, want %d (one stored tuple per node)", d, nodes)
	}
	if d := after.Broadcasts - before.Broadcasts; d != nodes {
		t.Errorf("refresh epoch used %d broadcasts, want %d (one digest per node)", d, nodes)
	}
	// Each digest reaches the one-hop neighborhood and nothing cascades.
	delivered := tn.sim.Stats().Delivered - deliveredBefore
	maxExpected := int64(2 * g.EdgeCount())
	if delivered > maxExpected {
		t.Errorf("refresh caused %d deliveries, want <= %d (no cascade)", delivered, maxExpected)
	}
}

func TestRefreshRepairsLostPropagation(t *testing.T) {
	// Kill all packets, inject, restore the radio: the structure only
	// exists at the source. Refresh must rebuild it everywhere.
	g := topology.Grid(4, 4, 1)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)

	tn.sim.SetFaults(transport.Faults{Loss: 1})
	if _, err := tn.node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	if _, have := tn.gradVal(topology.NodeName(1), pattern.KindGradient, "f"); have {
		t.Fatal("packet survived total loss")
	}

	tn.sim.SetFaults(transport.Faults{})
	refreshAll(tn)
	tn.assertGradientMatchesBFS(src, "f", math.Inf(1))
}

func TestRefreshPrunesPhantomSupport(t *testing.T) {
	// Line 0-1-2. Build the gradient, then lose node 1's withdrawal:
	// node 2 keeps phantom support from its stale table entry. Repeated
	// refreshes age the entry out, the copy turns suspect, and node 2
	// drops its orphan once the grace window has run.
	g := topology.Line(3)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	injectGradient(t, tn, src, "f", math.Inf(1))

	tn.sim.SetFaults(transport.Faults{Loss: 1}) // the withdrawal below will be lost
	tn.sim.RemoveEdge(src, topology.NodeName(1))
	tn.quiesce()
	// Node 1 dropped (neighbor loss is reliable), node 2 did not hear
	// the withdrawal and still holds val 2.
	if _, have := tn.gradVal(topology.NodeName(1), pattern.KindGradient, "f"); have {
		t.Fatal("node 1 kept its copy without support")
	}
	if v, have := tn.gradVal(topology.NodeName(2), pattern.KindGradient, "f"); !have || v != 2 {
		t.Fatalf("node 2 = %v, %v; want phantom copy val 2", v, have)
	}

	tn.sim.SetFaults(transport.Faults{})
	// The entry heard at epoch 0 ages out at epoch StaleEpochs+1, which
	// opens the grace window; the withdraw comes SuspicionEpochs later.
	for i := 0; i < core.StaleEpochs+core.SuspicionEpochs; i++ {
		refreshAll(tn)
	}
	if _, have := tn.gradVal(topology.NodeName(2), pattern.KindGradient, "f"); !have {
		t.Fatal("phantom copy withdrawn before its grace window ran out")
	}
	refreshAll(tn)
	if _, have := tn.gradVal(topology.NodeName(2), pattern.KindGradient, "f"); have {
		t.Error("phantom copy survived refresh aging and the grace window")
	}
	// The source side is intact.
	if v, have := tn.gradVal(src, pattern.KindGradient, "f"); !have || v != 0 {
		t.Errorf("source copy = %v, %v", v, have)
	}
}

func TestRefreshRebroadcastsPlainTuples(t *testing.T) {
	// A flood that was fully lost re-propagates on refresh from the
	// source's stored copy.
	g := topology.Line(3)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	tn.sim.SetFaults(transport.Faults{Loss: 1})
	if _, err := tn.node(src).Inject(pattern.NewFlood("news")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	tn.sim.SetFaults(transport.Faults{})
	refreshAll(tn)
	for _, id := range g.Nodes() {
		if len(tn.node(id).Read(pattern.ByName(pattern.KindFlood, "news"))) != 1 {
			t.Errorf("node %s missing flood after refresh", id)
		}
	}
}

func TestRefreshReturnsAnnouncementCount(t *testing.T) {
	g := topology.Line(2)
	tn := newTestNet(t, g)
	n := tn.node(topology.NodeName(0))
	if got := n.Refresh(); got != 0 {
		t.Errorf("empty refresh = %d", got)
	}
	if _, err := n.Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Inject(pattern.NewLocal("private")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	// One gradient announced; the local tuple never propagates.
	if got := n.Refresh(); got != 1 {
		t.Errorf("refresh announced %d, want 1", got)
	}
}

// TestLossyConvergenceWithRefresh is the failure-injection headline: a
// structure converges on a radio dropping 40% of packets, as long as
// the anti-entropy pass runs.
func TestLossyConvergenceWithRefresh(t *testing.T) {
	g := topology.Grid(6, 6, 1)
	tn := newTestNet(t, g)
	tn.sim.SetFaults(transport.Faults{Loss: 0.4})
	src := topology.NodeName(0)
	if _, err := tn.node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()

	for i := 0; i < 30; i++ {
		refreshAll(tn)
		if converged(tn, src) {
			return
		}
	}
	t.Error("structure did not converge after 30 lossy refresh cycles")
}

// TestRefreshDigestHealsLostWithdrawal: a node silently loses its copy
// (its withdrawal is dropped, so neighbors still believe it converged).
// The next refresh epoch must re-adopt the copy from digests alone — no
// full-tuple refresh announcement and no pull, because the node kept an
// exemplar of the structure.
func TestRefreshDigestHealsLostWithdrawal(t *testing.T) {
	g := topology.Line(3)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	injectGradient(t, tn, src, "f", math.Inf(1))
	refreshAll(tn) // warm up: digests from here on
	end := topology.NodeName(2)

	tn.sim.SetFaults(transport.Faults{Loss: 1})
	if got := len(tn.node(end).Delete(pattern.ByName(pattern.KindGradient, "f"))); got != 1 {
		t.Fatalf("Delete removed %d tuples, want 1", got)
	}
	tn.quiesce() // the withdrawal evaporates
	tn.sim.SetFaults(transport.Faults{})
	if _, have := tn.gradVal(end, pattern.KindGradient, "f"); have {
		t.Fatal("deleted copy still present")
	}

	before := tn.totalStats()
	refreshAll(tn)
	if v, have := tn.gradVal(end, pattern.KindGradient, "f"); !have || v != 2 {
		t.Fatalf("node 2 after digest heal = %v, %v; want val 2", v, have)
	}
	after := tn.totalStats()
	if d := after.RefreshAnnounced - before.RefreshAnnounced; d != 0 {
		t.Errorf("heal needed %d full refresh announcements, want 0 (digest-driven)", d)
	}
	if d := after.PullsOut - before.PullsOut; d != 0 {
		t.Errorf("heal needed %d pulls, want 0 (exemplar retained)", d)
	}
}

// TestRefreshHealsUnderDigestLoss: the anti-entropy pass still converges
// when digest and pull messages are themselves dropped — a lost digest
// or lost pull just retries on a later epoch.
func TestRefreshHealsUnderDigestLoss(t *testing.T) {
	g := topology.Grid(4, 4, 1)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	injectGradient(t, tn, src, "f", math.Inf(1))
	refreshAll(tn)

	// Knock out an interior copy with its withdrawal suppressed.
	victim := topology.NodeName(5)
	tn.sim.SetFaults(transport.Faults{Loss: 1})
	if got := len(tn.node(victim).Delete(pattern.ByName(pattern.KindGradient, "f"))); got != 1 {
		t.Fatalf("Delete removed %d tuples, want 1", got)
	}
	tn.quiesce()

	tn.sim.SetFaults(transport.Faults{Loss: 0.5})
	for i := 0; i < 30; i++ {
		refreshAll(tn)
		if v, have := tn.gradVal(victim, pattern.KindGradient, "f"); have && v == 2 {
			tn.sim.SetFaults(transport.Faults{})
			refreshAll(tn)
			tn.assertGradientMatchesBFS(src, "f", math.Inf(1))
			return
		}
	}
	t.Error("lost copy did not heal under 50% digest loss in 30 refresh epochs")
}

// TestDigestPullHealsNewcomer: with the catch-up unicast disabled, a
// node that joins after convergence hears only digests. It cannot
// reconstruct the structure from the compact entry, so it must pull the
// full bytes and adopt from the response.
func TestDigestPullHealsNewcomer(t *testing.T) {
	g := topology.Line(3)
	tn := newTestNet(t, g, core.WithoutCatchUp())
	mid, end := topology.NodeName(1), topology.NodeName(2)
	tn.sim.RemoveEdge(mid, end)
	tn.quiesce()

	src := topology.NodeName(0)
	if _, err := tn.node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	refreshAll(tn) // converge and warm up nodes 0-1

	tn.sim.AddEdge(mid, end) // node 2 joins; no catch-up fires
	tn.quiesce()
	if _, have := tn.gradVal(end, pattern.KindGradient, "f"); have {
		t.Fatal("newcomer acquired the structure without refresh")
	}

	before := tn.totalStats()
	refreshAll(tn)
	if v, have := tn.gradVal(end, pattern.KindGradient, "f"); !have || v != 2 {
		t.Fatalf("newcomer after digest+pull = %v, %v; want val 2", v, have)
	}
	after := tn.totalStats()
	if d := after.PullsOut - before.PullsOut; d == 0 {
		t.Error("newcomer healed without pulling — expected a digest-triggered pull")
	}
	if d := after.PullsIn - before.PullsIn; d == 0 {
		t.Error("no node served a pull request")
	}
}

// TestRefreshBatchesFullAnnouncements: when an epoch stages several full
// announcements they leave as one coalesced batch frame, and the
// receiver unpacks every sub-message.
func TestRefreshBatchesFullAnnouncements(t *testing.T) {
	g := topology.Line(2)
	tn := newTestNet(t, g)
	src := topology.NodeName(0)
	tn.sim.SetFaults(transport.Faults{Loss: 1})
	const floods = 10
	for i := 0; i < floods; i++ {
		if _, err := tn.node(src).Inject(pattern.NewFlood(fmt.Sprintf("news-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tn.quiesce()
	tn.sim.SetFaults(transport.Faults{})

	before := tn.totalStats()
	refreshAll(tn)
	after := tn.totalStats()
	if d := after.FramesOut - before.FramesOut; d != 1 {
		t.Errorf("refresh sent %d batch frames, want 1 (all announcements coalesced)", d)
	}
	if d := after.FramesIn - before.FramesIn; d != 1 {
		t.Errorf("receiver saw %d batch frames, want 1", d)
	}
	for i := 0; i < floods; i++ {
		name := fmt.Sprintf("news-%d", i)
		if len(tn.node(topology.NodeName(1)).Read(pattern.ByName(pattern.KindFlood, name))) != 1 {
			t.Errorf("flood %q missing at the receiver", name)
		}
	}
}

// limitedSender is a simulated endpoint that declares a frame payload
// budget (transport.FrameLimiter), as the UDP transport does.
type limitedSender struct {
	*transport.SimEndpoint
	limit int
}

func (s limitedSender) FramePayloadLimit() int { return s.limit }

// TestRefreshChunksFramesToBudget: a tight frame budget splits the
// staged announcements across several frames, none of which exceeds the
// transport's payload limit, and delivery is unaffected.
func TestRefreshChunksFramesToBudget(t *testing.T) {
	const limit = 300
	g := topology.Line(2)
	tn := newTestNetOn(t, g, func(ep *transport.SimEndpoint) transport.Sender {
		return limitedSender{SimEndpoint: ep, limit: limit}
	})
	src := topology.NodeName(0)
	tn.sim.SetFaults(transport.Faults{Loss: 1})
	const floods = 10
	for i := 0; i < floods; i++ {
		if _, err := tn.node(src).Inject(pattern.NewFlood(fmt.Sprintf("chunk-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tn.quiesce()
	tn.sim.SetFaults(transport.Faults{})

	before := tn.totalStats()
	refreshAll(tn)
	after := tn.totalStats()
	frames := after.FramesOut - before.FramesOut
	if frames < 2 {
		t.Errorf("tight budget produced %d frames, want >= 2 (chunked)", frames)
	}
	for i := 0; i < floods; i++ {
		name := fmt.Sprintf("chunk-%d", i)
		if len(tn.node(topology.NodeName(1)).Read(pattern.ByName(pattern.KindFlood, name))) != 1 {
			t.Errorf("flood %q missing at the receiver", name)
		}
	}
}

// TestRefreshDigestRepairsLostSupersede: a plain superseding tuple is
// upgraded at one node while a downstream link is gone, so the
// superseding broadcast never reaches the stale copy. When the link
// returns (catch-up disabled), refresh digests alone must deliver the
// upgrade: the stale node sees its neighbor advertise an announcement
// version it never consumed and pulls the full bytes.
func TestRefreshDigestRepairsLostSupersede(t *testing.T) {
	g := topology.Line(4)
	tn := newTestNet(t, g, core.WithoutCatchUp())
	src := topology.NodeName(0)
	if _, err := tn.node(src).Inject(pattern.NewPath("p")); err != nil {
		t.Fatal(err)
	}
	tn.quiesce()
	if got := routeLen(tn, topology.NodeName(3), "p"); got != 4 {
		t.Fatalf("node 3 route length = %d, want 4", got)
	}

	// Shortcut 0-2 appears while 2-3 is down: node 2 learns the shorter
	// route (via a first-contact digest pull from node 0), node 3 cannot.
	n2, n3 := topology.NodeName(2), topology.NodeName(3)
	tn.sim.RemoveEdge(n2, n3)
	tn.quiesce()
	tn.sim.AddEdge(src, n2)
	tn.quiesce()
	refreshAll(tn)
	if got := routeLen(tn, n2, "p"); got != 2 {
		t.Fatalf("node 2 route length = %d, want 2 after shortcut", got)
	}
	// One more epoch: node 2's single full re-broadcast of the upgraded
	// copy happens now, while node 3 is unreachable — the "lost
	// superseding announcement". From here on node 2 advertises the new
	// version by digest only.
	refreshAll(tn)

	tn.sim.AddEdge(n2, n3)
	tn.quiesce()
	if got := routeLen(tn, n3, "p"); got != 4 {
		t.Fatalf("node 3 upgraded without refresh: route length %d", got)
	}
	for i := 0; i < 3; i++ {
		refreshAll(tn)
	}
	if got := routeLen(tn, n3, "p"); got != 3 {
		t.Errorf("node 3 route length = %d, want 3 (superseding copy via digest pull)", got)
	}
}

// routeLen returns the length of the named path tuple's route at a
// node, 0 when the tuple is absent.
func routeLen(tn *testNet, id tuple.NodeID, name string) int {
	ts := tn.node(id).Read(pattern.ByName(pattern.KindPath, name))
	if len(ts) == 0 {
		return 0
	}
	return len(ts[0].(*pattern.Path).Route)
}

func converged(tn *testNet, src tuple.NodeID) bool {
	dist := tn.graph.BFSDistances(src)
	for _, id := range tn.graph.Nodes() {
		v, have := tn.gradVal(id, pattern.KindGradient, "f")
		if !have || v != float64(dist[id]) {
			return false
		}
	}
	return true
}
