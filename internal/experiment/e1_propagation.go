package experiment

import (
	"math"

	"tota/internal/core"
	"tota/internal/obs"
	"tota/internal/pattern"
)

// RunE1 reproduces Fig. 1: a tuple injected at one node propagates
// hop-by-hop and builds a coherent distributed structure. For each
// network it reports the propagation delay (radio rounds ≈ network
// eccentricity of the source), the message cost, the fraction of nodes
// covered, and the structure's deviation from the BFS oracle (0 when
// the expanding ring is exact).
func RunE1(scale Scale) *Result {
	specs := []netSpec{
		gridSpec(5, 5),
		gridSpec(10, 10),
		rggSpec(50, 10, 2.5, 1),
	}
	if scale == Full {
		specs = append(specs,
			gridSpec(15, 15),
			gridSpec(20, 20),
			rggSpec(100, 14, 2.5, 2),
			rggSpec(200, 20, 2.5, 3),
		)
	}
	tbl := newTable(
		"E1 (Fig. 1): gradient tuple propagation builds the structure of space",
		"network", "nodes", "edges", "rounds", "msgs", "coverage%", "meanAbsErr", "wrongNodes",
		"lat p50", "lat p95")
	res := newResult(tbl)
	for _, spec := range specs {
		g := spec.build()
		// Per-node propagation latency (inject → store, in radio
		// rounds), derived from the trace stream by the telemetry
		// latency tracker clocked on the settle round counter.
		var round int64
		lat := obs.NewLatencies(nil, func() float64 { return float64(round) }, obs.RoundBuckets)
		w := newWorldOpts(g, core.WithTracer(lat.Tracer()))
		src := g.Nodes()[0]
		if _, err := w.Node(src).Inject(pattern.NewGradient("e1")); err != nil {
			continue
		}
		rounds := settleCounting(w, &round, settleBudget)
		sent := w.Sim().Stats().Sent
		meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "e1", src, math.Inf(1))
		covered := float64(g.Len()-missing) / float64(g.Len())
		p50, p95 := lat.Propagation.Quantile(0.5), lat.Propagation.Quantile(0.95)
		tbl.AddRow(spec.label, g.Len(), g.EdgeCount(), rounds, sent,
			100*covered, meanAbs, missing+extra, p50, p95)
		res.Metrics["rounds_"+spec.label] = float64(rounds)
		res.Metrics["coverage_"+spec.label] = covered
		res.Metrics["err_"+spec.label] = meanAbs
		res.Metrics["prop_p50_"+spec.label] = p50
		res.Metrics["prop_p95_"+spec.label] = p95
	}
	return res
}
