package testnet

import (
	"path/filepath"
	"strings"
	"testing"

	"tota/internal/fault"
)

// TestTestnetRestartsInPlanOrder: nodes healing on one tick restart in
// plan order, as fault.Injector.Apply restarts them. The binary does
// not exist, so each restart is logged and then fails.
func TestTestnetRestartsInPlanOrder(t *testing.T) {
	plan, err := fault.ParsePlan("crash@1-3:n03,n01,n02")
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	h := &Harness{
		bin:   filepath.Join(t.TempDir(), "missing"),
		out:   &log,
		relay: NewRelay(1),
		plan:  plan,
		procs: make(map[string]*Proc),
	}
	defer h.relay.Close()
	for tick := 0; tick <= 3; tick++ {
		h.applyPlanState(tick)
	}
	var order []string
	for _, line := range strings.Split(log.String(), "\n") {
		if _, rest, ok := strings.Cut(line, "tick 3: restart "); ok {
			order = append(order, strings.Fields(rest)[0])
		}
	}
	if got := strings.Join(order, ","); got != "n03,n01,n02" {
		t.Fatalf("restart order %s, want n03,n01,n02\n%s", got, log.String())
	}
}

// TestTestnetFiveNodeCrashLossConvergence is the full tentpole path:
// five real tota-node processes on loopback UDP behind the fault
// relay, a seeded manifest whose plan SIGKILLs (and later restarts)
// one node while every link drops >= 30% of packets, and convergence
// asserted purely through the observability endpoints. Teardown is
// graceful: every surviving process must exit 0 on SIGTERM.
func TestTestnetFiveNodeCrashLossConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-process testnet run in -short mode")
	}
	bin, err := BuildNodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := Generate(42, 5)
	var log strings.Builder
	rep, err := Run(m, bin, &log)
	if err != nil {
		t.Fatalf("testnet run failed: %v\n--- harness log ---\n%s", err, log.String())
	}
	if !rep.Converged {
		t.Fatalf("fleet did not converge\n%s", log.String())
	}
	if rep.Restarts < 1 {
		t.Errorf("restarts = %d, want >= 1 (the crash window must have fired)", rep.Restarts)
	}
	if rep.CleanExits != len(m.Nodes) {
		t.Errorf("clean exits = %d, want %d", rep.CleanExits, len(m.Nodes))
	}
	if rep.Relay.Dropped == 0 {
		t.Errorf("relay dropped 0 packets under a >=30%% loss plan\n%s", log.String())
	}
	t.Logf("converged at tick %d in %v (restarts=%d, relay %+v)",
		rep.ConvergeTick, rep.Elapsed, rep.Restarts, rep.Relay)
}

// TestTestnetDeadlineDiagnostics forces a failure (a partition that
// never heals) and checks the harness reports it with per-node
// diagnostics instead of hanging.
func TestTestnetDeadlineDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("full-process testnet run in -short mode")
	}
	bin, err := BuildNodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := Generate(7, 3)
	// Cut node n01 off forever and give the run a tiny deadline: the
	// gradient can never reach it, so the fleet must miss the oracle.
	m.Plan = "partition@0:" + m.Nodes[1].ID
	m.DeadlineTicks = 10
	var log strings.Builder
	rep, err := Run(m, bin, &log)
	if err == nil || rep.Converged {
		t.Fatalf("partitioned fleet reported convergence\n%s", log.String())
	}
	if !strings.Contains(log.String(), "DEADLINE EXCEEDED") {
		t.Fatalf("no diagnostics dump in harness log:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "ready=") {
		t.Fatalf("diagnostics miss per-node readiness:\n%s", log.String())
	}
}
