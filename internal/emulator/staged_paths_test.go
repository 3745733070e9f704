package emulator

import (
	"fmt"
	"testing"

	"tota/internal/agg"
	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// stagedPathsRun captures everything a staged-send scenario puts on the
// wire, directly or summarized: final distributed state, the two
// convergecast answers, and the middleware/radio counters.
type stagedPathsRun struct {
	fingerprint  string
	sumA, sumB   float64
	okA, okB     bool
	nodeStats    core.Stats
	simDelivered int64
	simSent      int64
}

// runStagedPathsScenario drives the staged-send path that lives beside
// the refresh loop — convergecast partials (per-query staged
// contribution maps) — through a corruption window.
// Two queries with different origins overlap, so partial staging,
// folding and flushing interleave while corrupt frames are rejected and
// the suspicion and pull-backoff state they provoke drains afterwards.
// Every settle must quiesce within stagedPathsSettleRounds, or the test
// fails naming the phase.
func runStagedPathsScenario(t *testing.T, seed int64) stagedPathsRun {
	t.Helper()
	const side = 6
	w := New(Config{
		Graph:        topology.Grid(side, side, 1),
		RefreshEvery: 2,
		Seed:         seed,
	})
	settle := func(phase string, i int) {
		t.Helper()
		if w.Settle(stagedPathsSettleRounds); w.Sim().Pending() != 0 {
			t.Fatalf("%s %d: still %d packets in flight after %d rounds",
				phase, i, w.Sim().Pending(), stagedPathsSettleRounds)
		}
	}
	n := side * side
	for i := 0; i < n; i++ {
		if _, err := w.Node(topology.NodeName(i)).Inject(
			pattern.NewLocal("reading", tuple.F("v", float64(i%7+1)))); err != nil {
			t.Fatal(err)
		}
	}
	settle("readings", 0)

	// Two overlapping queries from different origins: their staged
	// partials coexist in every interior node's per-query maps.
	srcA, srcB := topology.NodeName(0), topology.NodeName(n-1)
	sel := tuple.Selector{Kind: pattern.KindLocal, Name: "reading", Field: "v"}
	idA, err := w.Node(srcA).Inject(agg.NewQuery("spA", agg.Sum, sel))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := w.Node(srcB).Inject(agg.NewQuery("spB", agg.Max, sel))
	if err != nil {
		t.Fatal(err)
	}
	settle("queries", 0)

	// Corruption window: heavy byte-flipping for a few epochs drops
	// frames at the checksum, so partials and announcements go missing
	// mid-fold.
	w.Sim().SetFaults(transport.Faults{Corrupt: 0.5})
	for i := 0; i < 4; i++ {
		w.RefreshAll()
		settle("corruption epoch", i)
	}
	w.Sim().SetFaults(transport.Faults{})
	// Healing needs one epoch per aggregation-tree level plus the
	// suspicion/backoff recovery tail (E14 sizes epochs the same way).
	for i := 0; i < 2*side+6; i++ {
		w.RefreshAll()
		settle("healing epoch", i)
	}

	out := stagedPathsRun{fingerprint: fingerprint(w)}
	var ra, rb agg.Result
	ra, out.okA = w.Node(srcA).AggResult(idA)
	rb, out.okB = w.Node(srcB).AggResult(idB)
	out.sumA, out.sumB = ra.Value(), rb.Value()
	out.nodeStats = w.TotalStats()
	st := w.Sim().Stats()
	out.simDelivered, out.simSent = st.Delivered, st.Sent
	return out
}

// stagedPathsSettleRounds bounds each settle of the scenario. The
// healthy run's longest settle is 11 rounds (the queries' build), and
// most take 1; the bound leaves a 9× margin, so a livelock fails the
// test at once instead of spinning until go test's timeout.
const stagedPathsSettleRounds = 100

func (r stagedPathsRun) digest() string {
	return sha256Hex(fmt.Sprintf("%sagg:%v %v %v %v\nnode:%+v\nsim:%d %d\n",
		r.fingerprint, r.sumA, r.sumB, r.okA, r.okB, r.nodeStats, r.simDelivered, r.simSent))
}

// stagedPathsGolden was re-recorded when the scenario moved to the one
// engine configuration. Two changes each move it alone: suspicion
// entered only from refresh, and dropping quarantine. Pull backoff does
// not, because the scenario already ran it at cap 6. It moved again,
// with no engine behaviour changed, when the access-policy counter left
// the Stats the digest prints. It moved again when aggregation dropped
// its epoch wave and began folding only children named by the support
// rows: fewer frames, and partials from the first epoch on. It moved
// again when triggered announcements began leaving once per round, at
// the batch's flush, and again when every other message joined them
// there (radio sends 4,563 → 4,569: the run corrupts frames, and frames
// that pack several messages change which messages a corruption hits).
const stagedPathsGolden = "82ef81ec897995d363ccfac8859184d30bfd67a934acb2887124e7525ee400ea"

// TestStagedSendPathsDeterministic pins the determinism of the
// auxiliary staged-send path: aggregation partials. Their per-node
// state lives in maps, so any map-order iteration feeding the wire
// would show up here as a digest mismatch against the recorded run (see
// golden_test.go).
func TestStagedSendPathsDeterministic(t *testing.T) {
	run := runStagedPathsScenario(t, 77)
	if run.nodeStats.DecodeErrors == 0 {
		t.Fatal("no frame was ever rejected; corruption window untested")
	}
	if run.nodeStats.PartialsOut == 0 {
		t.Fatal("no partials sent; aggregation staging untested")
	}
	if !run.okA || !run.okB {
		t.Fatalf("missing aggregation results: okA=%v okB=%v", run.okA, run.okB)
	}
	// The oracle values: sum and max of i%7+1 over the 36 readings.
	wantSum, wantMax := 0.0, 0.0
	for i := 0; i < 36; i++ {
		v := float64(i%7 + 1)
		wantSum += v
		if v > wantMax {
			wantMax = v
		}
	}
	if run.sumA != wantSum || run.sumB != wantMax {
		t.Errorf("aggregation drifted after the corruption window: sum=%v (want %v) max=%v (want %v)",
			run.sumA, wantSum, run.sumB, wantMax)
	}
	if got := run.digest(); got != stagedPathsGolden {
		t.Errorf("digest %s, recorded %s\nnode stats %+v\nradio sent=%d delivered=%d",
			got, stagedPathsGolden, run.nodeStats, run.simSent, run.simDelivered)
	}
}
