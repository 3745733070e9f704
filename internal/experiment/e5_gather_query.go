package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"tota/internal/gather"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE5 reproduces the §5.2 pull variant (the [RomJH02] functionality
// rebuilt on TOTA): a device injects a scoped query gradient; sensors
// within the scope react by injecting answers that descend the query
// structure back to the asker. Per scope it reports how many of the
// sensors answered, the radio cost per query, and the answer delivery
// rate.
func RunE5(scale Scale) *Result {
	side := 7
	queries := 4
	scopes := []float64{2, 4, math.Inf(1)}
	if scale == Full {
		side = 12
		queries = 10
		scopes = []float64{2, 4, 8, 16, math.Inf(1)}
	}
	g := topology.Grid(side, side, 1)
	// Sensors on a diagonal: varied distances from any asker.
	var sensors []tuple.NodeID
	for i := 0; i < side; i += 2 {
		sensors = append(sensors, topology.NodeName(i*side+i))
	}

	tbl := newTable(
		"E5 (§5.2 pull): scoped query / answer over the query's own structure",
		"scope", "queries", "inScopeSensors(mean)", "answers(mean)", "deliv%", "radioSends/query")
	res := newResult(tbl)

	for _, scope := range scopes {
		w := newWorld(g.Clone())
		for i, s := range sensors {
			i := i
			resp := gather.NewResponder(w.Node(s), "poll", func(q gather.Query) (tuple.Content, bool) {
				return tuple.Content{tuple.I("sensor", int64(i))}, true
			})
			defer resp.Close()
		}
		w.Settle(settleBudget)
		w.Sim().ResetStats()

		rng := rand.New(rand.NewSource(9))
		nodes := w.Graph().Nodes()
		totalInScope, totalAnswers := 0, 0
		for q := 0; q < queries; q++ {
			asker := nodes[rng.Intn(len(nodes))]
			dist := w.Graph().BFSDistances(asker)
			for _, s := range sensors {
				if float64(dist[s]) <= scope {
					totalInScope++
				}
			}
			if _, err := gather.Ask(w.Node(asker), "poll", fmt.Sprintf("q%d", q), scope); err != nil {
				continue
			}
			w.Settle(settleBudget)
			totalAnswers += len(gather.Answers(w.Node(asker)))
		}
		sent := w.Sim().Stats().Sent
		scopeLabel := formatFloat(scope)
		if math.IsInf(scope, 1) {
			scopeLabel = "inf"
		}
		deliv := 0.0
		if totalInScope > 0 {
			deliv = 100 * float64(totalAnswers) / float64(totalInScope)
		}
		tbl.AddRow(scopeLabel, queries,
			float64(totalInScope)/float64(queries),
			float64(totalAnswers)/float64(queries),
			deliv,
			float64(sent)/float64(queries))
		res.Metrics["answers_scope_"+scopeLabel] = float64(totalAnswers) / float64(queries)
		res.Metrics["deliv_scope_"+scopeLabel] = deliv
	}
	return res
}
