// Package emulator is the programmatic counterpart of the paper's
// graphic TOTA emulator: it runs hundreds of thousands of middleware
// nodes over the simulated radio, moves them with mobility models,
// rearranges the topology (the drag-and-drop of Fig. 3), and measures
// the distributed tuple structures against analytical oracles.
//
// Time advances in ticks: each Tick moves every mover, recomputes the
// unit-disk topology from the new positions, delivers one radio round,
// and optionally drains the network to quiescence. Everything is driven
// by seeded randomness, so runs are reproducible.
//
// Per-node hot state (middleware node, mover) lives in dense slices
// indexed by the topology's compact node handles. A World runs on the
// goroutine that drives it: every per-node phase of a Tick (expiry
// sweep, mobility, anti-entropy refresh) visits nodes in ascending id
// order, and the radio delivers each round serially.
package emulator

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"tota/internal/core"
	"tota/internal/mobility"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// Config assembles a World.
type Config struct {
	// Graph is the initial topology; node positions seed the mobility
	// state. The World takes ownership.
	Graph *topology.Graph
	// RadioRange, when positive, derives links from positions (unit
	// disk) after every tick. When zero the edge set only changes
	// through explicit edits.
	RadioRange float64
	// Loss is the per-packet drop probability of the radio.
	Loss float64
	// RefreshEvery, when positive, runs the middleware's anti-entropy
	// pass (Node.Refresh) on every node each RefreshEvery ticks —
	// required for convergence on lossy radios.
	RefreshEvery int
	// Seed drives every random choice.
	Seed int64
	// NodeOptions are extra middleware options applied to every node.
	NodeOptions []core.Option
}

// World is a running emulation.
type World struct {
	cfg Config
	// nodeCfg is the resolved middleware configuration shared by every
	// node of the world (built from cfg.NodeOptions on first attach).
	nodeCfg *core.Config
	sim     *transport.Sim
	graph   *topology.Graph

	// Dense per-node hot state, indexed by topology handle. A nil entry
	// means the handle is dead or has no node/mover. Grown on attach,
	// nilled on removal (handles are recycled by the graph).
	nodes  []*core.Node
	movers []mobility.Mover

	// Reusable scratch for the tick phases (driving goroutine only).
	order []topology.Handle

	ticks int
	time  float64

	// faultHook, when set, runs every Tick after mobility and topology
	// recomputation but before the refresh pass and radio round, so
	// scripted faults applied at tick T shape tick T's traffic. It runs
	// on the driving goroutine: it may mutate topology, sim fault state
	// and nodes freely (the radio is between Steps).
	faultHook func(tick int)

	// Telemetry. Churn counters are atomics so scrapes read them
	// lock-free; the cached rollup is what live gauges serve (the graph
	// and node slices must not be walked concurrently with a Tick).
	churnAdds    atomic.Int64
	churnRemoves atomic.Int64
	obsOn        atomic.Bool
	lastRollup   atomic.Pointer[Rollup]
	// tickSeconds, when set by RegisterMetrics, times each Tick on the
	// wall clock. The wall clock feeds telemetry only — it never
	// influences emulation behavior, which stays purely tick-driven.
	tickSeconds atomic.Pointer[obs.Histogram]
	// lastRate is the previous (rounds, wall time) sample the
	// rounds-per-second gauge differentiates against, scrape to scrape.
	lastRate atomic.Pointer[rateSample]
}

// rateSample is one throughput observation point.
type rateSample struct {
	rounds int64
	at     time.Time
}

// New builds a world with one middleware node per graph node.
func New(cfg Config) *World {
	if cfg.Graph == nil {
		cfg.Graph = topology.New()
	}
	w := &World{
		cfg:   cfg,
		graph: cfg.Graph,
		sim:   transport.NewSim(cfg.Graph, transport.SimConfig{Seed: cfg.Seed}),
	}
	w.sim.SetFaults(transport.Faults{Loss: cfg.Loss})
	for _, id := range cfg.Graph.Nodes() {
		w.attach(id)
	}
	return w
}

// grow extends the dense per-handle slices to cover handle h.
func (w *World) grow(h topology.Handle) {
	for len(w.nodes) <= int(h) {
		w.nodes = append(w.nodes, nil)
	}
	for len(w.movers) <= int(h) {
		w.movers = append(w.movers, nil)
	}
}

func (w *World) attach(id tuple.NodeID) *core.Node {
	ep := w.sim.Attach(id, nil)
	// All nodes of a world are configured identically except for their
	// position closure: resolve the options once and share the frozen
	// Config, setting only the localizer per node: every node reads its
	// position from the world's graph. At 100k+ nodes the per-node
	// Config copy of core.New is a measurable slice of the engine's
	// footprint.
	if w.nodeCfg == nil {
		w.nodeCfg = core.NewConfig(w.cfg.NodeOptions...)
	}
	n := core.NewShared(ep, w.nodeCfg)
	n.SetLocalizer(space.FuncLocalizer(func() (space.Point, bool) {
		return w.graph.Position(id)
	}))
	w.sim.Bind(id, n)
	h, _ := w.graph.Handle(id) // Attach added the node to the graph
	w.grow(h)
	w.nodes[h] = n
	return n
}

// nodeAt returns the middleware node at handle h (nil if none).
func (w *World) nodeAt(h topology.Handle) *core.Node {
	if h < 0 || int(h) >= len(w.nodes) {
		return nil
	}
	return w.nodes[h]
}

// Node returns the middleware node with the given id (nil if absent).
func (w *World) Node(id tuple.NodeID) *core.Node {
	h, ok := w.graph.Handle(id)
	if !ok {
		return nil
	}
	return w.nodeAt(h)
}

// Config returns the configuration the world was built with (baseline
// loss, radio range, … — fault injectors restore these on heal).
func (w *World) Config() Config { return w.cfg }

// SetFaultHook installs (or clears, with nil) the per-tick fault
// driver. See the faultHook field for the execution point.
func (w *World) SetFaultHook(fn func(tick int)) { w.faultHook = fn }

// Nodes returns all node ids in deterministic order.
func (w *World) Nodes() []tuple.NodeID { return w.graph.Nodes() }

// Graph exposes the live topology (and its oracles).
func (w *World) Graph() *topology.Graph { return w.graph }

// Sim exposes the underlying radio (for traffic statistics).
func (w *World) Sim() *transport.Sim { return w.sim }

// Ticks returns the number of elapsed ticks.
func (w *World) Ticks() int { return w.ticks }

// Time returns the elapsed simulated time.
func (w *World) Time() float64 { return w.time }

// AddNode attaches a new node at the given position (a device joining
// the network). Links appear on the next topology recomputation, or via
// explicit AddEdge.
func (w *World) AddNode(id tuple.NodeID, pos space.Point) *core.Node {
	w.graph.SetPosition(id, pos)
	return w.attach(id)
}

// RemoveNode crashes a node: its links drop and its middleware state
// disappears.
func (w *World) RemoveNode(id tuple.NodeID) {
	w.churnRemoves.Add(int64(len(w.graph.Neighbors(id))))
	h, ok := w.graph.Handle(id) // capture before Detach frees the handle
	w.sim.Detach(id)
	if ok && int(h) < len(w.nodes) {
		w.nodes[h] = nil
		w.movers[h] = nil
	}
}

// AddEdge manually links two nodes (wired scenario / scripted edits).
func (w *World) AddEdge(a, b tuple.NodeID) {
	if !w.graph.HasEdge(a, b) {
		w.churnAdds.Add(1)
	}
	w.sim.AddEdge(a, b)
}

// RemoveEdge manually unlinks two nodes.
func (w *World) RemoveEdge(a, b tuple.NodeID) {
	if w.graph.HasEdge(a, b) {
		w.churnRemoves.Add(1)
	}
	w.sim.RemoveEdge(a, b)
}

// SetMover assigns a mobility model to a node (added to the topology if
// missing). The mover's position becomes authoritative for the node
// from the next Tick.
func (w *World) SetMover(id tuple.NodeID, m mobility.Mover) {
	w.graph.AddNode(id)
	h, _ := w.graph.Handle(id)
	w.grow(h)
	w.movers[h] = m
}

// Mover returns the mover assigned to id, if any.
func (w *World) Mover(id tuple.NodeID) (mobility.Mover, bool) {
	h, ok := w.graph.Handle(id)
	if !ok || int(h) >= len(w.movers) || w.movers[h] == nil {
		return nil, false
	}
	return w.movers[h], true
}

// MoveNode teleports a node (the emulator's drag-and-drop) and rewires
// the topology if a radio range is configured.
func (w *World) MoveNode(id tuple.NodeID, pos space.Point) {
	w.graph.SetPosition(id, pos)
	w.recompute()
}

func (w *World) recompute() {
	if w.cfg.RadioRange <= 0 {
		return
	}
	events := w.graph.Recompute(w.cfg.RadioRange)
	var adds, removes int64
	for _, e := range events {
		if e.Added {
			adds++
		} else {
			removes++
		}
	}
	w.churnAdds.Add(adds)
	w.churnRemoves.Add(removes)
	w.sim.ApplyEdgeEvents(events)
}

// forEachActiveNode runs fn once per live, non-paused node, in
// ascending id order. Sends commit as they happen, so the radio's rng
// is consumed in that order too.
func (w *World) forEachActiveNode(fn func(n *core.Node)) {
	paused := w.sim.Faults().Paused
	w.order = w.graph.AppendSortedHandles(w.order[:0])
	for _, h := range w.order {
		n := w.nodeAt(h)
		if n == nil {
			continue
		}
		if len(paused) != 0 && paused[w.graph.IDAt(h)] {
			continue
		}
		fn(n)
	}
}

// Tick advances time: movers step by dt, the topology follows the new
// positions, and one radio round is delivered.
func (w *World) Tick(dt float64) {
	if h := w.tickSeconds.Load(); h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start).Seconds()) }()
	}
	w.ticks++
	w.time += dt
	now := w.time
	// Expired-tuple sweep. A paused node processes nothing, not even
	// expiry.
	w.forEachActiveNode(func(n *core.Node) {
		n.SweepExpired(now)
	})
	// Movers step in ascending id order: they routinely share one
	// scenario rng, so their step order is part of the seed.
	w.order = w.graph.AppendSortedHandles(w.order[:0])
	for _, h := range w.order {
		if int(h) < len(w.movers) && w.movers[h] != nil {
			w.graph.SetPositionAt(h, w.movers[h].Step(dt))
		}
	}
	w.recompute()
	if w.faultHook != nil {
		w.faultHook(w.ticks)
	}
	if w.cfg.RefreshEvery > 0 && w.ticks%w.cfg.RefreshEvery == 0 {
		w.RefreshAll()
	}
	w.sim.Step()
	if w.obsOn.Load() {
		w.PublishRollup()
	}
}

// RefreshAll runs the anti-entropy pass on every non-paused node (in
// ascending id order) and returns the number of announcements.
func (w *World) RefreshAll() int {
	total := 0
	w.forEachActiveNode(func(n *core.Node) {
		total += n.Refresh()
	})
	return total
}

// Settle drains the radio to quiescence without moving anything,
// returning the number of rounds it took (maxRounds if it never went
// quiet).
func (w *World) Settle(maxRounds int) int {
	return w.sim.RunUntilQuiet(maxRounds)
}

// GradientError compares the named maintained structure against the
// BFS oracle from src: it returns the mean absolute value error over
// nodes where both exist, plus the counts of nodes missing the tuple
// (reachable within scope but without a copy) and holding it in excess
// (beyond scope or unreachable but still storing it).
func (w *World) GradientError(kind, name string, src tuple.NodeID, scope float64) (meanAbs float64, missing, extra int) {
	dist := w.graph.BFSDistances(src)
	var sum float64
	var n int
	for _, h := range w.graph.AppendSortedHandles(nil) {
		node := w.nodeAt(h)
		if node == nil {
			continue
		}
		id := w.graph.IDAt(h)
		ts := node.Read(pattern.ByName(kind, name))
		var have bool
		var val float64
		if len(ts) > 0 {
			if m, ok := ts[0].(tuple.Maintained); ok {
				have = true
				val = m.Value()
			}
		}
		d, reachable := dist[id]
		want := reachable && float64(d) <= scope
		switch {
		case want && have:
			sum += math.Abs(val - float64(d))
			n++
		case want && !have:
			missing++
		case !want && have:
			extra++
		}
	}
	if n > 0 {
		meanAbs = sum / float64(n)
	}
	return meanAbs, missing, extra
}

// TotalStats sums the middleware counters across all nodes. It may run
// concurrently with a Tick (the telemetry contract): it walks its own
// handle snapshot and the engines' atomic counters only.
func (w *World) TotalStats() core.Stats { return w.sumNodes(nil) }

// sumNodes is the one per-node sum behind TotalStats and Rollup: it adds
// up every node's counters and, when storeSize is non-nil, its store
// size (which takes each node's lock).
func (w *World) sumNodes(storeSize *int) core.Stats {
	var total core.Stats
	for _, h := range w.graph.AppendSortedHandles(nil) {
		if n := w.nodeAt(h); n != nil {
			total = total.Add(n.Stats())
			if storeSize != nil {
				*storeSize += n.StoreSize()
			}
		}
	}
	return total
}

// Render draws the world as ASCII art (the Fig. 3 snapshot analogue):
// a width×height character grid over the bounding box, with each node
// drawn using the mark function ('o' by default; return 0 to use the
// default).
func (w *World) Render(width, height int, mark func(tuple.NodeID) rune) string {
	ids := w.Nodes()
	if len(ids) == 0 || width < 2 || height < 2 {
		return ""
	}
	minP := space.Point{X: math.Inf(1), Y: math.Inf(1)}
	maxP := space.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	type placed struct {
		id  tuple.NodeID
		pos space.Point
	}
	var ps []placed
	for _, id := range ids {
		p, ok := w.graph.Position(id)
		if !ok {
			continue
		}
		ps = append(ps, placed{id: id, pos: p})
		minP.X = math.Min(minP.X, p.X)
		minP.Y = math.Min(minP.Y, p.Y)
		maxP.X = math.Max(maxP.X, p.X)
		maxP.Y = math.Max(maxP.Y, p.Y)
	}
	if len(ps) == 0 {
		return ""
	}
	spanX := math.Max(maxP.X-minP.X, 1e-9)
	spanY := math.Max(maxP.Y-minP.Y, 1e-9)
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(".", width))
	}
	for _, p := range ps {
		x := int((p.pos.X - minP.X) / spanX * float64(width-1))
		y := int((p.pos.Y - minP.Y) / spanY * float64(height-1))
		r := rune('o')
		if mark != nil {
			if m := mark(p.id); m != 0 {
				r = m
			}
		}
		grid[height-1-y][x] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tick %d, %d nodes, %d links\n", w.ticks, w.graph.Len(), w.graph.EdgeCount())
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	return b.String()
}
