package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// Sizing of emu_fields at the default -seconds: emuCycles cycles, about
// 20 s of timed sections on the reference box.
const (
	emuNodes        = 10000
	emuRadioRange   = 1.5
	emuJitter       = 0.3 // node positions are jittered by ±emuJitter/2 per axis; keeps the unit grid 4-connected at range 1.5
	emuCrashes      = 5   // node crashes per cycle, each followed by a settle
	emuSettleBudget = 1 << 20
	emuCycles       = 50
	emuTracedCycles = 2    // cycles run behind the handler shims with -trace 1
	emuCentre       = 0.04 // sources are drawn from the central emuCentre × emuCentre of the grid (4 × 4 nodes), so build depth hardly depends on the seed
)

// emuWorld is the emulator as researchers use it: a seeded 10,000-node
// jittered grid with every option left at its default but the hop bound
// the grid's depth needs.
type emuWorld struct {
	w     *emulator.World
	rng   *rand.Rand
	side  int
	alive []tuple.NodeID // swap-removed on crash

	tally
}

// tally is what the cycles accumulate. wall and cpu cover the timed
// sections only: oracle checks run with the clock stopped.
type tally struct {
	wall, cpu                    time.Duration
	buildMS, repairMS, retractMS []float64
	removeUS, buildRounds        []float64
	owed, good                   int64 // (field, node) values checked / equal to the oracle
	residue                      int64 // copies retracted fields left behind
}

func newEmuWorld(seed int64, n int) *emuWorld {
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(n))))
	g := topology.New()
	for i := 0; i < n; i++ {
		g.SetPosition(topology.NodeName(i), space.Point{
			X: float64(i%side) + (rng.Float64()-0.5)*emuJitter,
			Y: float64(i/side) + (rng.Float64()-0.5)*emuJitter,
		})
	}
	g.Recompute(emuRadioRange)
	e := &emuWorld{rng: rng, side: side}
	e.w = emulator.New(emulator.Config{
		Graph:       g,
		RadioRange:  emuRadioRange,
		Seed:        seed,
		NodeOptions: []core.Option{core.WithMaxHops(2*side + 16)},
	})
	e.alive = e.w.Nodes()
	return e
}

// close lets setUp treat a world like a fleet; a world holds nothing but
// memory.
func (e *emuWorld) close() {}

// timed runs fn with the clock running.
func (e *emuWorld) timed(fn func()) time.Duration {
	w0, c0 := now(), cpuTime()
	fn()
	d := now() - w0
	e.wall += d
	e.cpu += cpuTime() - c0
	return d
}

// source draws a live node from the centre of the grid.
func (e *emuWorld) source() tuple.NodeID {
	lo := int(float64(e.side) * (0.5 - emuCentre/2))
	span := max(1, int(float64(e.side)*emuCentre))
	for {
		x, y := lo+e.rng.Intn(span), lo+e.rng.Intn(span)
		id := topology.NodeName(y*e.side + x)
		if e.w.Node(id) != nil {
			return id
		}
	}
}

// victim draws and forgets a live node other than src.
func (e *emuWorld) victim(src tuple.NodeID) tuple.NodeID {
	for {
		i := e.rng.Intn(len(e.alive))
		if id := e.alive[i]; id != src {
			e.alive[i] = e.alive[len(e.alive)-1]
			e.alive = e.alive[:len(e.alive)-1]
			return id
		}
	}
}

// checkField compares the field against the BFS oracle, node by node.
func (e *emuWorld) checkField(name string, src tuple.NodeID) error {
	nodes := int64(len(e.alive))
	e.owed += nodes
	meanAbs, missing, extra := e.w.GradientError(pattern.KindGradient, name, src, math.Inf(1))
	if meanAbs != 0 {
		return fmt.Errorf("field %s: mean |value - oracle| = %g", name, meanAbs)
	}
	e.good += nodes - int64(missing) - int64(extra)
	return nil
}

// checkGone counts the copies a retracted field left behind.
func (e *emuWorld) checkGone(name string) {
	nodes := int64(len(e.alive))
	e.owed += nodes
	tpl := pattern.ByName(pattern.KindGradient, name)
	var left int64
	for _, id := range e.alive {
		if len(e.w.Node(id).Read(tpl)) > 0 {
			left++
		}
	}
	e.residue += left
	e.good += nodes - left
}

// cycle is one unit of work: build a field from a seeded source, check
// it; crash emuCrashes seeded nodes one by one, letting the field repair
// after each, check it; retract the field, check nothing is left.
func (e *emuWorld) cycle(c int) error {
	src := e.source()
	name := fmt.Sprintf("f%d", c)
	var id tuple.ID
	var err error
	var rounds int
	d := e.timed(func() {
		id, err = e.w.Node(src).Inject(pattern.NewGradient(name))
		rounds = e.w.Settle(emuSettleBudget)
	})
	if err != nil {
		return fmt.Errorf("inject %s: %w", name, err)
	}
	e.buildMS = append(e.buildMS, ms(d))
	e.buildRounds = append(e.buildRounds, float64(rounds))
	if err := e.checkField(name, src); err != nil {
		return err
	}
	for k := 0; k < emuCrashes; k++ {
		v := e.victim(src)
		var removed time.Duration
		d := e.timed(func() {
			t0 := now()
			e.w.RemoveNode(v)
			removed = now() - t0
			e.w.Settle(emuSettleBudget)
		})
		e.removeUS = append(e.removeUS, us(removed))
		e.repairMS = append(e.repairMS, ms(d))
	}
	if err := e.checkField(name, src); err != nil {
		return err
	}
	d = e.timed(func() {
		e.w.Node(src).Retract(id)
		e.w.Settle(emuSettleBudget)
	})
	e.retractMS = append(e.retractMS, ms(d))
	e.checkGone(name)
	return nil
}

func runEmu(o options) (*result, error) {
	res := newResult("emu_fields", o)
	cycles := o.scale(emuCycles)

	// Set-up: build the world and run one warm-up cycle.
	e, setupS, err := setUp(o, func() (*emuWorld, error) {
		e := newEmuWorld(o.seed, emuNodes)
		return e, e.cycle(-1)
	})
	if err != nil {
		return nil, err
	}
	res.E2E["setup_s"] = setupS
	e.tally = tally{} // the warm-up cycle is not measured

	sim := e.w.Sim()
	s0, r0 := sim.Stats(), sim.Rounds()
	m0 := readMeter()
	// Window marks read the tally's clocks, which run only in timed
	// sections.
	bounds := windowBounds(cycles, numWindows)
	marks := []mark{{}}
	perWindow := []float64{}
	lastDelivered := s0.Delivered
	for c, w := 0, 1; c < cycles; c++ {
		if err := e.cycle(c); err != nil {
			return nil, err
		}
		if c+1 == bounds[w] {
			delivered := sim.Stats().Delivered
			marks = append(marks, mark{e.wall, e.cpu})
			perWindow = append(perWindow, float64(delivered-lastDelivered))
			lastDelivered = delivered
			w++
		}
	}
	m1 := readMeter()
	s1, r1 := sim.Stats(), sim.Rounds()
	res.phase("cycles", e.wall, len(e.buildMS))
	res.E2E["live_heap_mb"] = liveHeapMB()

	delivered := float64(max(1, s1.Delivered-s0.Delivered))
	res.settle(e.owed, e.good)
	res.E2E["e2e_p50_ms"] = windowMedian(e.buildMS)
	res.E2E["net_bytes_per_delivery"] = float64(s1.PayloadBytes-s0.PayloadBytes) / delivered
	res.E2E["deliveries_per_s"], res.E2E["cpu_us_per_delivery"], err = windowRates(marks, perWindow)
	if err != nil {
		return nil, fmt.Errorf("emu_fields: %w", err)
	}

	l := res.Layer
	l["sim.rounds_per_s"] = float64(r1-r0) / e.wall.Seconds()
	l["sim.sent_per_delivery"] = float64(s1.Sent-s0.Sent) / delivered
	l["sim.dropped"] = float64(s1.Dropped - s0.Dropped)
	l["emulator.repair_p50_ms"] = median(e.repairMS)
	l["emulator.retract_p50_ms"] = median(e.retractMS)
	l["emulator.remove_node_p50_us"] = median(e.removeUS)
	l["emulator.build_rounds_p50"] = median(e.buildRounds)
	runtimeLayer(l, m0, m1, delivered)
	l["runtime.paced_cpu_us_per_delivery"] = us(e.cpu) / delivered
	l["diag.e2e_p99_ms"] = tail(e.buildMS, 0.99)
	l["diag.e2e_p999_ms"] = tail(e.buildMS, 0.999)
	res.count("copies left behind by retracted fields", e.residue)
	res.loudLayerCounters("sim.dropped")

	if o.trace {
		if err := traceEmu(e, res, cycles); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timedHandler is the emulator's span shim: it times every HandlePacket
// of one node. The radio delivers to a node from one worker at a time
// and rounds are barriers, so the slice needs no lock.
type timedHandler struct {
	next     transport.Handler
	handleNS []int64
	capture  *[][]byte // non-nil on the one node that keeps payload copies for the wire probes
}

func (h *timedHandler) HandlePacket(from tuple.NodeID, data []byte) {
	if h.capture != nil && len(*h.capture) < probePayloads {
		*h.capture = append(*h.capture, append([]byte(nil), data...))
	}
	t0 := now()
	h.next.HandlePacket(from, data)
	h.handleNS = append(h.handleNS, int64(now()-t0))
}

func (h *timedHandler) HandleNeighbor(peer tuple.NodeID, added bool) {
	h.next.HandleNeighbor(peer, added)
}

// traceEmu re-binds every live node behind a timedHandler, runs traced
// cycles and the probes, and fills the traced per-layer metrics.
func traceEmu(e *emuWorld, res *result, firstCycle int) error {
	untraced := median(e.buildMS)
	var payloads [][]byte
	shims := make([]*timedHandler, 0, len(e.alive))
	for i, id := range e.alive {
		h := &timedHandler{next: e.w.Node(id)}
		if i == len(e.alive)/2 {
			h.capture = &payloads
		}
		e.w.Sim().Bind(id, h)
		shims = append(shims, h)
	}
	e.buildMS = nil
	for c := 0; c < emuTracedCycles; c++ {
		if err := e.cycle(firstCycle + c); err != nil {
			return err
		}
	}
	var handleUS []float64
	for _, h := range shims {
		for _, ns := range h.handleNS {
			handleUS = append(handleUS, float64(ns)/1e3)
		}
	}
	l := res.Layer
	// The emulator builds its own nodes, so there is no seam for a Sender
	// shim: the handler span includes the (enqueue-only) simulated sends.
	l["core.handle_packet_self_p50_us"] = median(handleUS)
	l["diag.trace_overhead_ratio"] = median(e.buildMS) / untraced
	wireProbes(l, payloads)
	tupleProbes(l, pattern.NewGradient("f0"), pattern.ByName(pattern.KindGradient, "f0"))

	// topology.Recompute runs on every mobility tick, which this workload
	// does not have: the probe is its only number, and no end-to-end
	// metric moves with it today.
	var recomputeMS []float64
	for i := 0; i < probeRepeats; i++ {
		g := e.w.Graph().Clone()
		for k := 0; k < 100; k++ {
			id := e.alive[e.rng.Intn(len(e.alive))]
			p, _ := g.Position(id)
			g.SetPosition(id, space.Point{X: p.X + e.rng.Float64() - 0.5, Y: p.Y + e.rng.Float64() - 0.5})
		}
		t0 := now()
		g.Recompute(emuRadioRange)
		recomputeMS = append(recomputeMS, ms(now()-t0))
	}
	l["topology.recompute_ms"] = median(recomputeMS)
	return nil
}
