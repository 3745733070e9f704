package core_test

import (
	"math"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
)

// lossBurstDrops runs a converged a-b-c chain through a burst of
// fully-lossy refresh epochs on the b->c link, heals it, runs recovery
// epochs, and reports the network's withdraw count plus c's final hold
// of the gradient.
func lossBurstDrops(t *testing.T, burstEpochs int) (maintDrop int64, suspected, recovered int64, cHolds bool) {
	t.Helper()
	g := topology.Line(3)
	tn := newTestNet(t, g)
	a, c := topology.NodeName(0), topology.NodeName(2)
	injectGradient(t, tn, a, "f", math.Inf(1))
	refreshAll(tn) // converge announcement versions
	tn.assertGradientMatchesBFS(a, "f", math.Inf(1))

	b := topology.NodeName(1)
	tn.sim.SetFaults(transport.Faults{LinkLoss: map[transport.Link]float64{{From: b, To: c}: 1}})
	for i := 0; i < burstEpochs; i++ {
		refreshAll(tn)
	}
	tn.sim.SetFaults(transport.Faults{})
	for i := 0; i < 3; i++ {
		refreshAll(tn)
	}
	st := tn.totalStats()
	_, cHolds = tn.gradVal(c, pattern.KindGradient, "f")
	return st.MaintDrop, st.Suspected, st.SuspectRecovered, cHolds
}

// TestFaultSuspicionAbsorbsLossBurst is the hysteresis acceptance
// criterion: a 3-epoch loss burst on one link ages c's support out, and
// the grace window must absorb it — no withdraw/re-propagation cycle.
func TestFaultSuspicionAbsorbsLossBurst(t *testing.T) {
	drops, suspected, recovered, holds := lossBurstDrops(t, 3)
	if drops != 0 {
		t.Errorf("burst caused %d withdrawals, want 0", drops)
	}
	if suspected == 0 {
		t.Error("no copy entered the grace window (burst not observed)")
	}
	if recovered == 0 {
		t.Error("no suspicion was cancelled by returning support")
	}
	if !holds {
		t.Error("gradient lost despite the grace window")
	}
}

// TestFaultSuspicionStillWithdrawsWhenSupportIsGone: hysteresis defers
// the withdraw, it must not suppress it — a burst longer than the
// grace window still tears the orphan copy down.
func TestFaultSuspicionStillWithdrawsWhenSupportIsGone(t *testing.T) {
	drops, suspected, _, _ := lossBurstDrops(t, 8)
	if suspected == 0 {
		t.Fatal("no suspicion raised during an 8-epoch outage")
	}
	if drops == 0 {
		t.Error("withdraw never fired despite the grace window elapsing")
	}
}

// TestFaultNewsWithdrawsWithoutGrace pins where suspicion applies: only
// support that aged out in refresh earns a grace window. A neighbor
// going down and an explicit withdraw are news, so the copy they leave
// unsupported is withdrawn in the same round — without a refresh clock
// a grace window would never end, and the orphan would live forever.
func TestFaultNewsWithdrawsWithoutGrace(t *testing.T) {
	n0, n1, n2 := topology.NodeName(0), topology.NodeName(1), topology.NodeName(2)
	setup := func() *testNet {
		tn := newTestNet(t, topology.Line(4))
		injectGradient(t, tn, n0, "f", math.Inf(1))
		refreshAll(tn)
		refreshAll(tn)
		return tn
	}

	t.Run("neighbor removal", func(t *testing.T) {
		tn := setup()
		// n1's only other neighbor routes through it (poisoned reverse),
		// so losing n0 leaves it without support.
		tn.sim.RemoveEdge(n0, n1)
		if v, have := tn.gradVal(n1, pattern.KindGradient, "f"); have {
			t.Errorf("n1 kept an unsupported copy (val %v) after its parent went down", v)
		}
	})

	t.Run("explicit withdraw", func(t *testing.T) {
		tn := setup()
		// n1 deletes its copy and broadcasts a withdraw; n2's remaining
		// neighbor routes through it, so the withdraw leaves it unsupported.
		tn.node(n1).Delete(pattern.ByName(pattern.KindGradient, "f"))
		tn.sim.Step()
		if v, have := tn.gradVal(n2, pattern.KindGradient, "f"); have {
			t.Errorf("n2 kept an unsupported copy (val %v) in the round the withdraw arrived", v)
		}
		tn.quiesce()
		tn.assertGradientMatchesBFS(n0, "f", math.Inf(1))
	})
}

// TestFaultPullBackoffBoundsPullStorm is the backoff acceptance
// criterion: a neighbor that advertises a structure by digest but
// whose pull channel is dead (the crashed-then-silent analogue — here
// the b->a direction drops everything, so pulls vanish in flight)
// must induce a bounded, decaying pull sequence instead of one pull
// per refresh epoch.
func TestFaultPullBackoffBoundsPullStorm(t *testing.T) {
	const epochs = 16
	g := topology.New()
	g.AddNode("a")
	g.AddNode("b")
	tn := newTestNet(t, g, core.WithoutCatchUp())
	// Inject while isolated: the announcement broadcast reaches
	// nobody, so b can only ever learn of the structure by digest.
	injectGradient(t, tn, "a", "f", math.Inf(1))
	tn.sim.SetFaults(transport.Faults{LinkLoss: map[transport.Link]float64{{From: "b", To: "a"}: 1}}) // pulls die in flight
	tn.sim.AddEdge("a", "b")
	for i := 0; i < epochs; i++ {
		refreshAll(tn)
	}
	st := tn.node("b").Stats()
	pulls, suppressed := st.PullsOut, st.PullsSuppressed
	// Decaying sequence with gaps 1,2,4,6,6,…: far fewer than one per
	// epoch, and every suppressed mention is accounted for.
	if pulls >= epochs/2 {
		t.Errorf("%d pulls over %d epochs, want a decayed sequence (< %d)", pulls, epochs, epochs/2)
	}
	if pulls == 0 {
		t.Error("no pulls at all — backoff must retry, not give up")
	}
	if suppressed != int64(epochs)-pulls {
		t.Errorf("suppressed = %d, want %d (every digest mention either pulls or counts as suppressed)", suppressed, int64(epochs)-pulls)
	}
}

// TestFaultPullBackoffResetsOnConsumedContent: once the neighbor
// answers, the backoff state must clear so the next gap starts at 1.
func TestFaultPullBackoffResetsOnConsumedContent(t *testing.T) {
	g := topology.New()
	g.AddNode("a")
	g.AddNode("b")
	tn := newTestNet(t, g, core.WithoutCatchUp())
	injectGradient(t, tn, "a", "f", math.Inf(1))
	tn.sim.SetFaults(transport.Faults{LinkLoss: map[transport.Link]float64{{From: "b", To: "a"}: 1}})
	tn.sim.AddEdge("a", "b")
	for i := 0; i < 8; i++ {
		refreshAll(tn)
	}
	if st := tn.node("b").Stats(); st.PullsSuppressed == 0 {
		t.Fatal("no suppression before the heal — scenario broken")
	}
	// Heal the pull channel: the next allowed pull round-trips, b
	// adopts, and the backoff entry for (a, f) is reset.
	tn.sim.SetFaults(transport.Faults{})
	for i := 0; i < 10 && len(tn.node("b").Read(pattern.ByName(pattern.KindGradient, "f"))) == 0; i++ {
		refreshAll(tn)
	}
	if len(tn.node("b").Read(pattern.ByName(pattern.KindGradient, "f"))) == 0 {
		t.Fatal("b never adopted the gradient after the heal")
	}
	suppressedAtHeal := tn.node("b").Stats().PullsSuppressed
	// Converged: digests now match recorded versions, so no further
	// pulls happen and nothing more is suppressed.
	for i := 0; i < 4; i++ {
		refreshAll(tn)
	}
	if got := tn.node("b").Stats().PullsSuppressed; got != suppressedAtHeal {
		t.Errorf("suppression kept counting after convergence: %d -> %d", suppressedAtHeal, got)
	}
}

// TestFaultExpiredTupleNotResurrectedByStaleDigest: a tombstoned
// (lease-expired) copy must not come back when a stale neighbor digest
// or a late pull response for it arrives after the sweep.
func TestFaultExpiredTupleNotResurrectedByStaleDigest(t *testing.T) {
	g := topology.New()
	g.AddEdge("a", "b")
	tn := newTestNet(t, g)

	// A leased gradient from a reaches b; both hold it.
	gr := pattern.NewGradient("tmp").Expires(5)
	if _, err := tn.node("a").Inject(gr); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	tn.quiesce()
	refreshAll(tn) // settle announcement versions
	if len(tn.node("b").Read(pattern.ByName(pattern.KindGradient, "tmp"))) != 1 {
		t.Fatal("b never stored the leased gradient")
	}

	// b's lease elapses (a's clock is NOT advanced: it keeps the copy
	// and keeps advertising it — the stale-digest source).
	tn.node("b").SweepExpired(10)
	if got := tn.node("b").Stats().Expired; got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}

	// a refreshes: its digest (and any pull response) reaches b.
	for i := 0; i < 3; i++ {
		tn.node("a").Refresh()
		tn.quiesce()
	}
	if got := len(tn.node("b").Read(pattern.ByName(pattern.KindGradient, "tmp"))); got != 0 {
		t.Errorf("expired tuple resurrected on b (%d copies) by a stale neighbor digest", got)
	}
	if got := tn.node("b").Stats().PullsOut; got != 0 {
		t.Errorf("b pulled %d times for a tuple it tombstoned", got)
	}
}
