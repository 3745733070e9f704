package experiment

import (
	"fmt"
	"io"

	"tota/internal/testnet"
)

// RunE18 is the client-gateway experiment: the E17 faulted testnet
// (real tota-node processes, ≥30% relay loss, one SIGKILL-and-restart
// victim) with every node additionally serving its gateway RPC to a
// cohort of fake clients. Each client holds one subscription and
// mirrors the tuple space purely from the event stream; some inject
// their own flood tuples through the gateway. Convergence now requires
// every CLIENT MIRROR — not just every node store — to match the BFS
// oracle, which the victim's clients can only achieve by surviving the
// gateway restart: reconnect, resubscribe with replay-from-seq, detect
// the epoch change, resync, and catch up from the new instance's
// events. At full scale the fleet carries over a thousand client
// subscriptions, the paper's "users connect to gateways" story made
// measurable.
func RunE18(scale Scale) *Result {
	type cohort struct{ nodes, clients, injectors int }
	sizes := []cohort{{5, 8, 2}}
	if scale == Full {
		// 5 gateways x 201 clients = 1005 concurrent subscriptions.
		sizes = append(sizes, cohort{5, 201, 2})
	}
	tbl := newTable(
		"E18 (gateway): faulted testnet with per-node client cohorts — mirrors must match the oracle through a gateway restart",
		"fleet", "subs", "resyncs", "replay_miss", "drops", "gap_bugs", "converge_tick", "reconverge(s)")
	res := newResult(tbl)

	bin, err := testnet.BuildNodeBinary()
	if err != nil {
		tbl.AddRow("build", err.Error(), 0, 0, 0, 0, 0, 0)
		return res
	}
	for _, c := range sizes {
		m := testnet.GenerateGateway(int64(1800+c.clients), c.nodes, c.clients, c.injectors)
		rep, err := testnet.Run(m, bin, io.Discard)
		label := fmt.Sprintf("%dx%d", c.nodes, c.clients)
		key := fmt.Sprintf("%d_%d", c.nodes, c.clients)
		if err != nil || !rep.Converged {
			tbl.AddRow(label, rep.ClientSubs, rep.ClientResyncs, rep.GatewayReplayMisses,
				rep.GatewayDrops, rep.ClientGapViolations, "deadline", "-")
			res.Metrics["converged_"+key] = 0
			continue
		}
		secs := rep.Elapsed.Seconds()
		tbl.AddRow(label, rep.ClientSubs, rep.ClientResyncs, rep.GatewayReplayMisses,
			rep.GatewayDrops, rep.ClientGapViolations, rep.ConvergeTick, fmt.Sprintf("%.2f", secs))
		res.Metrics["converged_"+key] = 1
		res.Metrics["subs_"+key] = float64(rep.ClientSubs)
		res.Metrics["resyncs_"+key] = float64(rep.ClientResyncs)
		res.Metrics["gap_violations_"+key] = float64(rep.ClientGapViolations)
		res.Metrics["reconverge_s_"+key] = secs
	}
	return res
}
