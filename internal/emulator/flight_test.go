package emulator

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tota/internal/core"
	"tota/internal/mobility"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// flightFleet lazily builds one FlightRecorder per node, routing each
// engine event to the emitting node's ring — the per-node black box a
// real deployment would keep. The clock is the radio round counter, so
// stamps are part of the determinism contract (unlike wall time).
type flightFleet struct {
	clock func() float64

	mu      sync.Mutex
	byNode  map[tuple.NodeID]*obs.FlightRecorder
	tracers map[tuple.NodeID]core.Tracer
}

func newFlightFleet(clock func() float64) *flightFleet {
	return &flightFleet{
		clock:   clock,
		byNode:  make(map[tuple.NodeID]*obs.FlightRecorder),
		tracers: make(map[tuple.NodeID]core.Tracer),
	}
}

func (f *flightFleet) Tracer() core.Tracer {
	return func(ev core.TraceEvent) {
		f.mu.Lock()
		tr, ok := f.tracers[ev.Node]
		if !ok {
			rec := obs.NewFlightRecorder(f.clock, 1<<14)
			f.byNode[ev.Node] = rec
			tr = rec.Tracer()
			f.tracers[ev.Node] = tr
		}
		f.mu.Unlock()
		tr(ev)
	}
}

// records snapshots every node's ring as JSONL-schema records.
func (f *flightFleet) records() map[tuple.NodeID][]obs.TraceRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[tuple.NodeID][]obs.TraceRecord, len(f.byNode))
	for id, rec := range f.byNode {
		out[id] = rec.Records()
	}
	return out
}

// runFlightScenario runs the standard lossy mobile scenario (the
// TestSameSeedSameUniverse fixture) with full trace sampling and
// per-node flight recorders.
func runFlightScenario(seed int64) map[tuple.NodeID][]obs.TraceRecord {
	var w *World
	fleet := newFlightFleet(func() float64 { return float64(w.Sim().Rounds()) })
	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(30, 10, 3, rng, 100)
	w = New(Config{
		Graph:        g,
		RadioRange:   3,
		Loss:         0.2,
		RefreshEvery: 5,
		Seed:         seed,
		NodeOptions: []core.Option{
			core.WithTracer(fleet.Tracer()),
			core.WithTraceSampling(1),
		},
	})
	bounds := space.Rect{Max: space.Point{X: 10, Y: 10}}
	for i, id := range g.Nodes() {
		if i%3 == 0 {
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
		}
	}
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		panic(err)
	}
	for i := 0; i < 40; i++ {
		w.Tick(0.5)
	}
	w.Settle(100000)
	return fleet.records()
}

// flightDigest is the SHA-256 of every node's flight ring, in node order.
func flightDigest(recs map[tuple.NodeID][]obs.TraceRecord) string {
	var b strings.Builder
	for _, id := range sortedNodes(recs) {
		fmt.Fprintf(&b, "%s\n", id)
		for _, r := range recs[id] {
			fmt.Fprintf(&b, "\t%+v\n", r)
		}
	}
	return sha256Hex(b.String())
}

const (
	flightGolden      = "2dfc4490cb9b46472beb05f8bea617c21f47608fe8003158b13f3aa35ad6332a"
	largeFlightGolden = "ae1fd064708b1b688846c57701eec67c8b3bada842f09dc6ebe9a2546e2b2b02"
)

// TestFlightGolden: the per-node flight rings — contents, order, round
// stamps and span identities — reproduce the recorded run bit for bit
// (see golden_test.go), which is what makes a flight dump diffable
// against a reproduction of the same seed.
func TestFlightGolden(t *testing.T) {
	recs := runFlightScenario(99)
	var total, sampled int
	for _, rs := range recs {
		total += len(rs)
		for _, r := range rs {
			if r.Trace != "" {
				sampled++
			}
		}
	}
	if total == 0 {
		t.Fatal("scenario recorded nothing; not a meaningful determinism check")
	}
	if sampled == 0 {
		t.Fatal("no record carries a trace id despite sampling 1")
	}
	if got := flightDigest(recs); got != flightGolden {
		t.Errorf("flight digest %s, recorded %s (%d records)", got, flightGolden, total)
	}
}

// runLargeFlightScenario is the 300-node variant, with refresh epochs
// every third tick.
func runLargeFlightScenario(seed int64) map[tuple.NodeID][]obs.TraceRecord {
	var w *World
	fleet := newFlightFleet(func() float64 { return float64(w.Sim().Rounds()) })
	g := topology.Grid(20, 15, 1)
	w = New(Config{
		Graph:        g,
		Loss:         0.15,
		RefreshEvery: 3,
		Seed:         seed,
		NodeOptions: []core.Option{
			core.WithTracer(fleet.Tracer()),
			core.WithTraceSampling(1),
		},
	})
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		panic(err)
	}
	for i := 0; i < 15; i++ {
		w.Tick(1)
	}
	w.Settle(100000)
	return fleet.records()
}

// TestLargeFlightGolden extends the guarantee to a 300-node world.
func TestLargeFlightGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("300-node world")
	}
	recs := runLargeFlightScenario(7)
	if len(recs) == 0 {
		t.Fatal("scenario recorded nothing")
	}
	if got := flightDigest(recs); got != largeFlightGolden {
		t.Errorf("flight digest %s, recorded %s", got, largeFlightGolden)
	}
}

// TestEmulatorThroughputMetrics: RegisterMetrics exposes the tick
// duration histogram and the rounds counter/rate series, and ticking
// feeds them.
func TestEmulatorThroughputMetrics(t *testing.T) {
	g := topology.Grid(4, 4, 1)
	w := New(Config{Graph: g, Seed: 1})
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewFlood("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Tick(1)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"tota_emu_tick_seconds_count 5",
		"tota_emu_radio_rounds_total 5",
		"tota_emu_rounds_per_s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The rate gauge differentiates between scrapes: the first scrape
	// primed the sample, more rounds plus a second scrape must read >= 0
	// without panicking.
	w.Settle(10)
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tota_emu_rounds_per_s") {
		t.Error("rate gauge disappeared on second scrape")
	}
}
