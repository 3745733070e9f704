package experiment

import (
	"math"
	"runtime"
	"strconv"
	"time"

	"tota/internal/pattern"
	"tota/internal/topology"
)

// E16Run is one memory scale point: a gradient settled over a jittered
// grid (the E15 pipeline, no mobility) with the engine's footprint
// measured per node — the columnar-state deliverable.
type E16Run struct {
	Nodes int
	Edges int

	BuildSec  float64
	Rounds    int
	SettleSec float64
	Msgs      int64

	GradErr float64 // vs the BFS oracle (must be 0 on a lossless radio)
	Missing int
	Extra   int

	// LiveHeapBytes is the settled world's live Go heap (double-GC'd
	// HeapAlloc, minus the pre-build baseline); HeapPerNode divides it
	// by the network size.
	LiveHeapBytes uint64
	HeapPerNode   float64

	// PeakRSSMB is the kernel's VmHWM high-water mark; RSSPerNode
	// divides it by the network size. Being a process-wide peak it
	// only isolates one run when measured in a fresh process.
	PeakRSSMB  float64
	RSSPerNode float64
}

// LiveHeapBytes settles the garbage collector and reports the live
// heap. Two GC cycles let finalizer-resurrected and newly-unreachable
// memory drain before the read.
func LiveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RunE16N settles one gradient over an n-node jittered grid and
// measures the engine's memory footprint: live heap per node after the
// settle, and the process peak RSS. The propagation pipeline is exactly
// RunE15N's (same layout, seed, injection point and oracle check), so
// the measured bytes price the same settled state E15 times.
func RunE16N(n int) E16Run {
	baseline := LiveHeapBytes()
	start := time.Now()
	w := NewScaleWorld(n)
	g := w.Graph()
	side := int(math.Ceil(math.Sqrt(float64(n))))
	out := E16Run{Nodes: n, Edges: g.EdgeCount()}
	out.BuildSec = time.Since(start).Seconds()

	src := topology.NodeName((side/2)*side + side/2)
	if !g.HasNode(src) {
		src = topology.NodeName(0)
	}
	if _, err := w.Node(src).Inject(pattern.NewGradient("e16")); err != nil {
		panic(err)
	}
	start = time.Now()
	out.Rounds = w.Settle(settleBudget)
	out.SettleSec = time.Since(start).Seconds()
	out.Msgs = w.Sim().Stats().Sent
	out.GradErr, out.Missing, out.Extra = w.GradientError(pattern.KindGradient, "e16", src, 1e18)

	settled := LiveHeapBytes()
	if settled > baseline {
		out.LiveHeapBytes = settled - baseline
	}
	out.HeapPerNode = float64(out.LiveHeapBytes) / float64(n)
	out.PeakRSSMB = peakRSSMB()
	out.RSSPerNode = out.PeakRSSMB * (1 << 20) / float64(n)
	runtime.KeepAlive(w)
	return out
}

// RunE16 is the memory deliverable of the columnar-state issue:
// bytes-per-node for settled gradient worlds, up to the 1M-node scale
// point at Full scale. Quick scale runs the same pipeline at 1k nodes
// for tests and CI.
func RunE16(scale Scale) *Result {
	sizes := []int{1_024}
	if scale == Full {
		sizes = append(sizes, 250_000, 500_000, 1_000_000)
	}
	tbl := newTable(
		"E16 (memory): columnar engine state — settled gradient footprint per node",
		"nodes", "edges", "rounds", "msgs", "settle_s", "grad_err", "miss", "extra",
		"heap_mb", "heap_b/node", "peak_rss_mb", "rss_b/node")
	res := newResult(tbl)
	for _, n := range sizes {
		r := RunE16N(n)
		tbl.AddRow(r.Nodes, r.Edges, r.Rounds, r.Msgs,
			formatFloat(r.SettleSec),
			formatFloat(r.GradErr), r.Missing, r.Extra,
			formatFloat(float64(r.LiveHeapBytes)/(1<<20)),
			formatFloat(r.HeapPerNode),
			formatFloat(r.PeakRSSMB),
			formatFloat(r.RSSPerNode))
		label := strconv.Itoa(r.Nodes)
		res.Metrics["heap_per_node_n"+label] = r.HeapPerNode
		res.Metrics["rss_per_node_n"+label] = r.RSSPerNode
		res.Metrics["grad_err_n"+label] = r.GradErr + float64(r.Missing) + float64(r.Extra)
		res.Metrics["peak_rss_mb"] = r.PeakRSSMB
	}
	return res
}
