package experiment

import (
	"fmt"

	"tota/internal/pattern"
)

// RunE12 quantifies the gossip propagation pattern: the probabilistic
// flood trades coverage for traffic. On dense networks, flooding (p=1)
// is redundant — every node hears each tuple from every neighbor — so
// moderate relay probabilities retain near-total coverage at a fraction
// of the sends; on sparse networks coverage collapses faster.
func RunE12(scale Scale) *Result {
	ps := []float64{0.2, 0.5, 1.0}
	if scale == Full {
		ps = []float64{0.1, 0.2, 0.3, 0.5, 0.7, 1.0}
	}
	specs := []netSpec{
		gridSpec(10, 10),
		rggSpec(100, 12, 2.8, 21), // denser: mean degree ~2x the grid's
	}
	tbl := newTable(
		"E12 (pattern library): gossip relay probability vs coverage and traffic",
		"network", "p", "coverage%", "sends", "sends/covered")
	res := newResult(tbl)

	const trials = 10
	for _, spec := range specs {
		for _, p := range ps {
			g := spec.build()
			if g == nil {
				continue
			}
			w := newWorld(g)
			nodes := g.Nodes()
			// Average over several tuples from spread-out sources: each
			// tuple draws fresh (deterministic) per-node coins, so a
			// single wave is one percolation sample, not an average.
			totalCovered := 0
			for i := 0; i < trials; i++ {
				src := nodes[(i*len(nodes))/trials]
				name := fmt.Sprintf("e12-%d", i)
				if _, err := w.Node(src).Inject(pattern.NewGossip(name, p)); err != nil {
					continue
				}
				w.Settle(settleBudget)
				for _, id := range nodes {
					if len(w.Node(id).Read(pattern.ByName(pattern.KindGossip, name))) > 0 {
						totalCovered++
					}
				}
			}
			sent := w.Sim().Stats().Sent
			coverage := 100 * float64(totalCovered) / float64(g.Len()*trials)
			perCovered := 0.0
			if totalCovered > 0 {
				perCovered = float64(sent) / float64(totalCovered)
			}
			tbl.AddRow(spec.label, p, coverage, float64(sent)/trials, perCovered)
			key := fmt.Sprintf("%s_p%s", spec.label, formatFloat(p))
			res.Metrics["coverage_"+key] = coverage
			res.Metrics["sends_"+key] = float64(sent) / trials
		}
	}
	return res
}
