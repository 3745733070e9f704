package experiment

import (
	"testing"

	"tota/internal/core"
)

func TestA1AblationShapes(t *testing.T) {
	res := RunA1(Quick)
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d\n%s", res.Table.NumRows(), res.Table)
	}
	// Poisoned reverse makes teardown O(region): the stranded tail
	// cannot support itself, so the full engine's cost does not depend
	// on the scope. Without it the tail counts up to the scope, so the
	// cost grows with it. The full engine's cost includes the
	// poisoned-row staleness probe (one pull + reply on the stranded
	// tail), so the margin at scope 30 is 1.5x, not the pre-probe 2x.
	noPR := []core.Option{core.WithoutPoisonedReverse()}
	_, full12 := teardownCost(12, nil)
	_, full30 := teardownCost(30, nil)
	_, broken12 := teardownCost(12, noPR)
	_, broken30 := teardownCost(30, noPR)
	if full30 != full12 {
		t.Errorf("full engine teardown depends on the scope: %d msgs at 12, %d at 30", full12, full30)
	}
	if broken30 <= broken12 {
		t.Errorf("ablated teardown does not grow with the scope: %d msgs at 12, %d at 30", broken12, broken30)
	}
	if float64(broken30) <= 1.5*float64(full30) {
		t.Errorf("count-to-scope not visible at scope 30: full=%d ablated=%d", full30, broken30)
	}
	// Catch-up determines whether a joiner learns the structure.
	if res.Metrics["joiner_learned_full engine"] != 1 {
		t.Errorf("joiner did not learn with catch-up\n%s", res.Table)
	}
	if res.Metrics["joiner_learned_no catch-up"] != 0 {
		t.Errorf("joiner learned without catch-up or refresh\n%s", res.Table)
	}
}

func TestE10OverlayShapes(t *testing.T) {
	res := RunE10(Quick)
	for _, key := range []string{"n16_f0", "n16_f4", "n32_f0", "n32_f4"} {
		if got := res.Metrics["misplaced_"+key]; got != 0 {
			t.Errorf("%s: %v misplaced keys\n%s", key, got, res.Table)
		}
		if got := res.Metrics["answered_"+key]; got != 100 {
			t.Errorf("%s: answered %v%%\n%s", key, got, res.Table)
		}
	}
	// Fingers cut routing latency; the gap widens with ring size.
	if res.Metrics["rounds_per_key_n32_f4"] >= res.Metrics["rounds_per_key_n32_f0"] {
		t.Errorf("fingers did not cut rounds:\n%s", res.Table)
	}
	if res.Metrics["rounds_per_key_n32_f0"] <= res.Metrics["rounds_per_key_n16_f0"] {
		t.Errorf("plain-ring latency did not grow with size:\n%s", res.Table)
	}
}

func TestE11MeetingShapes(t *testing.T) {
	res := RunE11(Quick)
	for _, k := range []string{"2", "3"} {
		initial := res.Metrics["initial_"+k]
		final := res.Metrics["final_"+k]
		if final >= initial {
			t.Errorf("%s participants did not converge: %v -> %v\n%s", k, initial, final, res.Table)
		}
		if final > 2 {
			t.Errorf("%s participants final spread %v > 2\n%s", k, final, res.Table)
		}
	}
}

func TestE12GossipShapes(t *testing.T) {
	res := RunE12(Quick)
	// Flooding covers everything; coverage decreases with p; traffic
	// increases with p.
	if got := res.Metrics["coverage_grid 10x10_p1"]; got != 100 {
		t.Errorf("p=1 coverage = %v\n%s", got, res.Table)
	}
	if res.Metrics["coverage_grid 10x10_p0.200"] > res.Metrics["coverage_grid 10x10_p1"] {
		t.Errorf("coverage not monotone in p:\n%s", res.Table)
	}
	if res.Metrics["sends_grid 10x10_p0.200"] >= res.Metrics["sends_grid 10x10_p1"] {
		t.Errorf("traffic not increasing with p:\n%s", res.Table)
	}
	// On the denser RGG, p=0.5 should retain most of the coverage.
	if got := res.Metrics["coverage_rgg n=100_p0.500"]; got < 60 {
		t.Errorf("dense-network gossip coverage collapsed: %v\n%s", got, res.Table)
	}
}

func TestA2AblationShapes(t *testing.T) {
	res := RunA2(Quick)
	// Lossless: exact structure regardless of refresh.
	if got := res.Metrics["err_l0_p0"]; got != 0 {
		t.Errorf("lossless error = %v\n%s", got, res.Table)
	}
	// Lossy without refresh: inflated values survive. With refresh:
	// the error (almost) disappears and coverage is total.
	stale := res.Metrics["err_l0.300_p0"]
	healed := res.Metrics["err_l0.300_p5"]
	if stale <= 0 {
		t.Errorf("loss left no structure error (%v) — ablation shows nothing\n%s", stale, res.Table)
	}
	if healed >= stale/4 {
		t.Errorf("refresh did not repair the structure: %v -> %v\n%s", stale, healed, res.Table)
	}
	if got := res.Metrics["coverage_l0.300_p5"]; got != 100 {
		t.Errorf("refresh coverage = %v\n%s", got, res.Table)
	}
}

func TestE13ChaosShapes(t *testing.T) {
	res := RunE13(Quick)
	scenarios := []string{
		"loss burst 50%", "partition corner", "crash x2",
		"corruption 30%", "combined chaos",
	}
	for _, sc := range scenarios {
		if got := res.Metrics["converged_"+sc]; got != 1 {
			t.Errorf("%s did not reconverge to the BFS oracle\n%s", sc, res.Table)
		}
		// Repair after heals must stay a local affair: bounded by twice
		// E2's single-perturbation repair cost per heal event.
		if got := res.Metrics["overhead_per_heal_"+sc]; got > 2*e2RepairMsgsBaseline {
			t.Errorf("%s repair overhead %v > %v per heal\n%s",
				sc, got, 2*e2RepairMsgsBaseline, res.Table)
		}
	}
	// The degradation features must actually engage under compound chaos.
	if res.Metrics["suspected_combined chaos"] == 0 {
		t.Errorf("combined chaos never triggered suspicion\n%s", res.Table)
	}
}
