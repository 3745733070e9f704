package experiment

import (
	"fmt"
	"io"

	"tota/internal/testnet"
)

// RunE17 is the real-process robustness experiment: for each fleet
// size it generates a seeded testnet manifest (ring+chord topology,
// ≥30% relay-level packet loss, one SIGKILL-and-restart victim, a
// gradient + flood workload), runs genuine tota-node processes behind
// the fault relay, and measures whether — and how fast — the fleet
// reconverges to the exact oracle tuple set, verified solely through
// each node's observability endpoints. The emulator never appears: a
// reconvergence here crossed real sockets, real process deaths and
// real HTTP scrapes.
func RunE17(scale Scale) *Result {
	sizes := []int{5}
	if scale == Full {
		sizes = append(sizes, 10, 25)
	}
	tbl := newTable(
		"E17 (robustness): real-process testnet — crash + loss reconvergence",
		"fleet", "links", "restarts", "dropped", "converge_tick", "reconverge(s)", "clean_exits")
	res := newResult(tbl)

	bin, err := testnet.BuildNodeBinary()
	if err != nil {
		tbl.AddRow("build", err.Error(), 0, 0, 0, 0, 0)
		return res
	}
	for _, n := range sizes {
		m := testnet.Generate(int64(1000+n), n)
		rep, err := testnet.Run(m, bin, io.Discard)
		label := fmt.Sprintf("%d procs", n)
		if err != nil || !rep.Converged {
			tbl.AddRow(label, len(m.Links), rep.Restarts, rep.Relay.Dropped, "deadline", "-", rep.CleanExits)
			res.Metrics[fmt.Sprintf("reconverged_%d", n)] = 0
			continue
		}
		secs := rep.Elapsed.Seconds()
		tbl.AddRow(label, len(m.Links), rep.Restarts, rep.Relay.Dropped,
			rep.ConvergeTick, fmt.Sprintf("%.2f", secs), rep.CleanExits)
		res.Metrics[fmt.Sprintf("reconverged_%d", n)] = 1
		res.Metrics[fmt.Sprintf("reconverge_s_%d", n)] = secs
	}
	return res
}
