package emulator

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"tota/internal/core"
	"tota/internal/mobility"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// fingerprint summarizes a world's full distributed state: every node's
// stored tuples (kind, id, content) in deterministic order.
func fingerprint(w *World) string {
	var b strings.Builder
	for _, id := range w.Nodes() {
		ts := w.Node(id).Read(tuple.MatchAll())
		lines := make([]string, 0, len(ts))
		for _, t := range ts {
			lines = append(lines, fmt.Sprintf("%s|%s|%s", t.Kind(), t.ID(), t.Content()))
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s:{%s}\n", id, strings.Join(lines, ";"))
	}
	return b.String()
}

// runScenario executes a fixed lossy mobile scenario and returns the
// final state fingerprint.
func runScenario(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(30, 10, 3, rng, 100)
	w := New(Config{Graph: g, RadioRange: 3, Loss: 0.2, RefreshEvery: 5, Seed: seed})
	bounds := space.Rect{Max: space.Point{X: 10, Y: 10}}
	for i, id := range g.Nodes() {
		if i%3 == 0 {
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
		}
	}
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		return "inject-failed"
	}
	if _, err := w.Node(topology.NodeName(5)).Inject(pattern.NewFlood("news")); err != nil {
		return "inject-failed"
	}
	for i := 0; i < 40; i++ {
		w.Tick(0.5)
	}
	w.Settle(100000)
	return fingerprint(w)
}

// TestSameSeedSameUniverse is the reproducibility guarantee every
// experiment rests on: identical seeds produce byte-identical final
// distributed state, even with loss, mobility and refresh in play.
func TestSameSeedSameUniverse(t *testing.T) {
	a := runScenario(99)
	b := runScenario(99)
	if a != b {
		t.Error("same seed diverged")
	}
	c := runScenario(100)
	if a == c {
		t.Error("different seeds produced identical universes (suspicious)")
	}
}

// runTracedScenario executes the fixed lossy mobile scenario with the
// engine trace stream fanned out to both a per-node collector and a
// JSONL export sink, returning the per-node streams and the sink's
// written/dropped counts.
func runTracedScenario(seed int64) (perNode map[tuple.NodeID][]string, written, dropped int64) {
	var jsonl strings.Builder
	sink := obs.NewJSONLSink(&jsonl, nil, nil, 1<<16)
	var mu sync.Mutex
	perNode = make(map[tuple.NodeID][]string)
	tracer := obs.MultiTracer(sink.Tracer(), func(ev core.TraceEvent) {
		mu.Lock()
		perNode[ev.Node] = append(perNode[ev.Node], ev.String())
		mu.Unlock()
	})

	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(30, 10, 3, rng, 100)
	w := New(Config{
		Graph:        g,
		RadioRange:   3,
		Loss:         0.2,
		RefreshEvery: 5,
		Seed:         seed,
		NodeOptions:  []core.Option{core.WithTracer(tracer)},
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
	_ = sink.Close()
	return perNode, sink.Written(), sink.Dropped()
}

const traceStreamsGolden = "95e6369d7b420a8b8953eabf34688faef0cf08f80cb5b6754580058abd7251ef"

// TestTraceStreamsGolden extends the same-seed guarantee to the
// observability pipeline: each node's engine trace stream is complete
// (nothing shed by the export sink) and reproduces the recorded run
// (see golden_test.go).
func TestTraceStreamsGolden(t *testing.T) {
	perNode, written, dropped := runTracedScenario(99)
	if dropped != 0 {
		t.Fatalf("sink shed %d events", dropped)
	}
	var total int64
	for _, evs := range perNode {
		total += int64(len(evs))
	}
	if total == 0 {
		t.Fatal("scenario traced nothing; not a meaningful determinism check")
	}
	if written != total {
		t.Errorf("sink exported %d of %d traced events", written, total)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "written:%d dropped:%d\n", written, dropped)
	writeTraces(&b, perNode)
	if got := sha256Hex(b.String()); got != traceStreamsGolden {
		t.Errorf("trace digest %s, recorded %s (%d events)", got, traceStreamsGolden, total)
	}
}

// TestRefreshEveryHealsLossyWorld exercises the emulator's integrated
// anti-entropy: with 30% loss and periodic refresh, the structure must
// end exactly right.
func TestRefreshEveryHealsLossyWorld(t *testing.T) {
	g := topology.Grid(6, 6, 1)
	w := New(Config{Graph: g, Loss: 0.3, RefreshEvery: 3, Seed: 4})
	src := topology.NodeName(0)
	if _, err := w.Node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		w.Tick(1)
	}
	w.Sim().SetFaults(transport.Faults{})
	w.RefreshAll()
	w.Settle(100000)
	meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", src, 1e18)
	if meanAbs != 0 || missing != 0 || extra != 0 {
		t.Errorf("lossy world did not heal: err=%v missing=%d extra=%d", meanAbs, missing, extra)
	}
}
