package experiment

import (
	"fmt"
	"time"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE9 microbenchmarks the §4.3 TOTA API on a single node: local
// inject, selective read, match-all read and delete against growing
// tuple-space sizes. The matching primitives are what every propagation
// hook pays, so their cost bounds the engine's throughput.
func RunE9(scale Scale) *Result {
	sizes := []int{10, 100}
	if scale == Full {
		sizes = append(sizes, 1000, 5000)
	}
	tbl := newTable(
		"E9 (§4.3): local API microbenchmarks",
		"storeSize", "inject(µs)", "readOne(µs)", "readAll(µs)", "subscribeHit(µs)")
	res := newResult(tbl)

	for _, size := range sizes {
		w := newWorld(topology.Line(1))
		n := w.Node(topology.NodeName(0))
		for i := 0; i < size; i++ {
			if _, err := n.Inject(pattern.NewLocal(fmt.Sprintf("item%d", i), tuple.I("v", int64(i)))); err != nil {
				return res
			}
		}
		target := fmt.Sprintf("item%d", size-1)

		injectUS := timeOpUS(200, func(i int) {
			_, _ = n.Inject(pattern.NewLocal(fmt.Sprintf("extra%d", i)))
		})
		// Remove the extras so reads see exactly `size` tuples.
		for i := 0; i < 200; i++ {
			n.Delete(pattern.ByName(pattern.KindLocal, fmt.Sprintf("extra%d", i)))
		}

		readOneUS := timeOpUS(500, func(int) {
			n.ReadOne(pattern.ByName(pattern.KindLocal, target))
		})
		readAllUS := timeOpUS(100, func(int) {
			n.Read(tuple.Match(pattern.KindLocal))
		})

		hits := 0
		n.Subscribe(pattern.ByName(pattern.KindLocal, "probe"), func(core.Event) { hits++ })
		subUS := timeOpUS(200, func(i int) {
			_, _ = n.Inject(pattern.NewLocal("probe"))
			n.Delete(pattern.ByName(pattern.KindLocal, "probe"))
		})

		tbl.AddRow(size, injectUS, readOneUS, readAllUS, subUS)
		res.Metrics[fmt.Sprintf("readone_us_%d", size)] = readOneUS
		res.Metrics[fmt.Sprintf("inject_us_%d", size)] = injectUS
	}
	return res
}

func timeOpUS(iters int, op func(i int)) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		op(i)
	}
	return float64(time.Since(start).Microseconds()) / float64(iters)
}
