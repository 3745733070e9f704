package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestE15QuickSettlesExactly runs the scale pipeline at Quick size
// (1k nodes): on a lossless radio the settled gradient must match the
// BFS oracle exactly — zero error, zero missing, zero extra.
func TestE15QuickSettlesExactly(t *testing.T) {
	r := RunE15N(1_024, 3)
	if r.Rounds <= 0 || r.Rounds >= settleBudget {
		t.Fatalf("settle took %d rounds", r.Rounds)
	}
	if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
		t.Errorf("gradient vs oracle: err=%v missing=%d extra=%d", r.GradErr, r.Missing, r.Extra)
	}
	if r.Edges == 0 || r.Msgs == 0 {
		t.Errorf("degenerate world: edges=%d msgs=%d", r.Edges, r.Msgs)
	}
	if r.PeakRSSMB <= 0 {
		t.Errorf("peak RSS not measured: %v", r.PeakRSSMB)
	}
}

// e15Golden is the SHA-256 of the deterministic fields of
// RunE15N(1_024, 2), recorded at the last commit that still had sharded
// tick phases, on its serial path.
const e15Golden = "292898dc4e725ca588112aff4547c62342683bf1789268d682e466111b220a15"

// TestE15Golden pins the scale scenario itself, mobility ticks
// included: same seed, same edges, rounds, messages and oracle readings
// as the recorded run. CI also runs it under -race.
func TestE15Golden(t *testing.T) {
	r := RunE15N(1_024, 2)
	sum := sha256.Sum256([]byte(fmt.Sprintf("nodes:%d edges:%d rounds:%d msgs:%d err:%v missing:%d extra:%d",
		r.Nodes, r.Edges, r.Rounds, r.Msgs, r.GradErr, r.Missing, r.Extra)))
	if got := hex.EncodeToString(sum[:]); got != e15Golden {
		t.Errorf("digest %s, recorded %s: %+v", got, e15Golden, r)
	}
}

// TestE15RaceCapped is the CI -race variant: a capped (1k-node) E15
// whose settled gradient must match the BFS oracle exactly, so the
// sweep/refresh phases and the round-end batch flushes are race-checked on
// every run.
func TestE15RaceCapped(t *testing.T) {
	r := RunE15N(1_024, 2)
	if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
		t.Errorf("gradient vs oracle: err=%v missing=%d extra=%d", r.GradErr, r.Missing, r.Extra)
	}
}

// TestE15QuickTable exercises the table-producing wrapper.
func TestE15QuickTable(t *testing.T) {
	res := RunE15(Quick)
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Metrics["grad_err_n1024"] != 0 {
		t.Errorf("grad_err_n1024 = %v", res.Metrics["grad_err_n1024"])
	}
	if res.Metrics["rounds_n1024"] <= 0 {
		t.Errorf("rounds_n1024 = %v", res.Metrics["rounds_n1024"])
	}
}
