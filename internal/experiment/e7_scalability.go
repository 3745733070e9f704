package experiment

import (
	"math"

	"tota/internal/pattern"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// RunE7 runs the scalability evaluation §6 defers to future work: how
// the cost of building and holding a distributed structure grows with
// network size and with tuple scope. Per configuration it reports the
// radio rounds to build the field (the paper's "TOTA delay"), total
// messages, messages per node, and the per-node memory devoted to the
// structure (serialized copy size).
func RunE7(scale Scale) *Result {
	specs := []netSpec{
		gridSpec(5, 5),
		gridSpec(10, 10),
		rggSpec(100, 14, 2.5, 2),
	}
	if scale == Full {
		specs = append(specs,
			gridSpec(15, 15),
			gridSpec(20, 20),
			gridSpec(20, 40),
			rggSpec(200, 20, 2.5, 3),
			rggSpec(400, 28, 2.5, 4),
			rggSpec(800, 40, 2.5, 5),
		)
	}
	tbl := newTable(
		"E7 (§6): scalability — structure build cost vs network size and scope",
		"network", "nodes", "scope", "rounds", "msgs", "msgs/node", "msgs/round", "bytes/node")
	res := newResult(tbl)

	for _, spec := range specs {
		for _, scope := range []float64{5, math.Inf(1)} {
			g := spec.build()
			if g == nil {
				continue
			}
			w := newWorld(g)
			src := g.Nodes()[0]
			grad := pattern.NewGradient("e7")
			if !math.IsInf(scope, 1) {
				grad = grad.Bounded(scope)
			}
			if _, err := w.Node(src).Inject(grad); err != nil {
				continue
			}
			rounds := w.Settle(settleBudget)
			sent := w.Sim().Stats().Sent
			scopeLabel := formatFloat(scope)
			if math.IsInf(scope, 1) {
				scopeLabel = "inf"
			}
			bytesPerNode := storedStructureBytes(w, src)
			msgsPerRound := 0.0
			if rounds > 0 {
				msgsPerRound = float64(sent) / float64(rounds)
			}
			tbl.AddRow(spec.label, g.Len(), scopeLabel, rounds, sent,
				float64(sent)/float64(g.Len()), msgsPerRound, bytesPerNode)
			res.Metrics["rounds_"+spec.label+"_s"+scopeLabel] = float64(rounds)
			res.Metrics["msgs_per_node_"+spec.label+"_s"+scopeLabel] = float64(sent) / float64(g.Len())
			res.Metrics["msgs_per_round_"+spec.label+"_s"+scopeLabel] = msgsPerRound
		}
	}
	return res
}

// storedStructureBytes estimates per-node structure memory as the mean
// serialized size of the stored copies.
func storedStructureBytes(w *worldT, src tuple.NodeID) float64 {
	var total, count int
	for _, id := range w.Nodes() {
		for _, t := range w.Node(id).Read(pattern.ByName(pattern.KindGradient, "e7")) {
			data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Tuple: t})
			if err == nil {
				total += len(data)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
