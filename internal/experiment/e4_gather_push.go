package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"tota/internal/gather"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE4 reproduces the §5.2 push variant: information nodes propagate
// description gradients; a device reads its local tuple space to learn
// what exists and walks the field back to the source. Per advertisement
// scope it reports the fraction of (device, sensor) pairs that can see
// the advertisement, and — for visible pairs — the mean ratio of the
// walk length to the true shortest path (1.0 = the field navigates
// optimally, "without any a priori global information").
func RunE4(scale Scale) *Result {
	side := 7
	devices := 5
	scopes := []float64{3, math.Inf(1)}
	if scale == Full {
		side = 12
		devices = 15
		scopes = []float64{3, 6, 12, math.Inf(1)}
	}
	g := topology.Grid(side, side, 1)
	sensors := []tuple.NodeID{
		topology.NodeName(0),
		topology.NodeName(side*side - 1),
		topology.NodeName(side * side / 2),
	}

	tbl := newTable(
		"E4 (§5.2 push): sensor advertisement fields — discovery and navigation",
		"scope", "visible%", "walks", "walkLen/shortest(mean)", "walkSuccess%")
	res := newResult(tbl)

	for _, scope := range scopes {
		w := newWorld(g.Clone())
		for i, s := range sensors {
			name := fmt.Sprintf("sensor%d", i)
			if _, err := gather.Advertise(w.Node(s), name, scope, tuple.S("kind", "sensor")); err != nil {
				return res
			}
		}
		w.Settle(settleBudget)

		rng := rand.New(rand.NewSource(5))
		nodes := w.Graph().Nodes()
		visible, total := 0, 0
		ratioSum := 0.0
		walks, successes := 0, 0
		for d := 0; d < devices; d++ {
			dev := nodes[rng.Intn(len(nodes))]
			found := gather.Discover(w.Node(dev))
			total += len(sensors)
			visible += len(found)
			for _, r := range found {
				target := sensors[indexOfSensor(r.Name)]
				walkLen, ok := walkToSource(w, dev, r.Name)
				walks++
				if !ok {
					continue
				}
				successes++
				oracle := len(w.Graph().ShortestPath(dev, target)) - 1
				if oracle > 0 {
					ratioSum += float64(walkLen) / float64(oracle)
				} else {
					ratioSum++
				}
			}
		}
		meanRatio := 0.0
		if successes > 0 {
			meanRatio = ratioSum / float64(successes)
		}
		scopeLabel := formatFloat(scope)
		if math.IsInf(scope, 1) {
			scopeLabel = "inf"
		}
		tbl.AddRow(scopeLabel,
			100*float64(visible)/float64(total),
			walks, meanRatio, pct(successes, walks))
		res.Metrics["visible_scope_"+scopeLabel] = float64(visible) / float64(total)
		res.Metrics["walkratio_scope_"+scopeLabel] = meanRatio
	}
	return res
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func indexOfSensor(name string) int {
	var i int
	_, _ = fmt.Sscanf(name, "sensor%d", &i)
	return i
}

// walkToSource follows the named resource gradient downhill node by
// node, returning the number of moves.
func walkToSource(w *worldT, from tuple.NodeID, name string) (int, bool) {
	at := from
	for steps := 0; steps < 10000; steps++ {
		val, ok := resourceVal(w, at, name)
		if !ok {
			return steps, false
		}
		if val == 0 {
			return steps, true
		}
		nbrVals := make(map[tuple.NodeID]float64)
		for _, nb := range w.Graph().Neighbors(at) {
			if v, ok := resourceVal(w, nb, name); ok {
				nbrVals[nb] = v
			}
		}
		next, ok := gather.NextHop(val, nbrVals)
		if !ok {
			return steps, false
		}
		at = next
	}
	return 0, false
}

func resourceVal(w *worldT, at tuple.NodeID, name string) (float64, bool) {
	for _, r := range gather.Discover(w.Node(at)) {
		if r.Name == name {
			return r.Distance, true
		}
	}
	return 0, false
}
