package tota_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/experiment"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// Micro-benchmarks of the hot paths underlying every experiment. The
// experiments themselves are run and checked by internal/experiment.

func BenchmarkLocalInject(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Line(1)})
	n := w.Node(topology.NodeName(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Inject(pattern.NewLocal("x", tuple.I("v", int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSelective(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Line(1)})
	n := w.Node(topology.NodeName(0))
	for i := 0; i < 1000; i++ {
		if _, err := n.Inject(pattern.NewLocal(fmt.Sprintf("item%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	tpl := pattern.ByName(pattern.KindLocal, "item500")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := n.Read(tpl); len(got) != 1 {
			b.Fatal("missing tuple")
		}
	}
}

func BenchmarkGradientBuild10x10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
		if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
			b.Fatal(err)
		}
		w.Settle(100000)
	}
}

func BenchmarkGradientRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := emulator.New(emulator.Config{Graph: topology.Grid(8, 8, 1)})
		if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
			b.Fatal(err)
		}
		w.Settle(100000)
		b.StartTimer()
		w.RemoveEdge(topology.NodeName(1), topology.NodeName(9))
		w.Settle(100000)
		b.StopTimer()
		if meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", topology.NodeName(0), math.Inf(1)); meanAbs != 0 || missing != 0 || extra != 0 {
			b.Fatal("repair did not converge")
		}
		b.StartTimer()
	}
}

// BenchmarkSettle measures the emulator's two settle shapes: a full
// gradient propagation over a 20x20 grid from a fresh world, and a
// refresh epoch (sweep + refresh + drain) over a settled 2.5k-node
// jittered world.
func BenchmarkSettle(b *testing.B) {
	b.Run("build20x20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := emulator.New(emulator.Config{Graph: topology.Grid(20, 20, 1)})
			if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
				b.Fatal(err)
			}
			w.Settle(100000)
		}
	})
	b.Run("refresh2500", func(b *testing.B) {
		w := experiment.NewScaleWorld(2_500)
		if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
			b.Fatal(err)
		}
		w.Settle(1000000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RefreshAll()
			w.Settle(1000000)
		}
	})
}

// BenchmarkE16Scale250k is the CI scale smoke for the columnar engine
// state (run with -benchtime 1x): one gradient settled over 250k nodes
// must match the BFS oracle exactly and stay inside the
// bytes-per-node budget. VmHWM is process-wide, so the reported
// peak_rss_bytes and bytes_per_node are only a per-run isolate when the
// benchmark runs in a fresh process.
func BenchmarkE16Scale250k(b *testing.B) {
	// budget is bytes/node of peak RSS. Measured: 4864 B/node at 250k
	// inside the test binary (the 100k tota-emu point runs ~4550 — a
	// test process carries more resident baseline, and the 1.2× GC
	// ceiling amplifies it). 5 KiB leaves ~5% headroom while still
	// failing on any regression toward the pre-columnar ~9 KiB/node.
	const budget = 5_120
	for i := 0; i < b.N; i++ {
		r := experiment.RunE16N(250_000)
		if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
			b.Fatalf("oracle mismatch at 250k nodes: err=%v missing=%d extra=%d",
				r.GradErr, r.Missing, r.Extra)
		}
		if r.RSSPerNode > budget {
			b.Fatalf("peak RSS = %.0f bytes/node, budget %d", r.RSSPerNode, budget)
		}
		b.ReportMetric(r.PeakRSSMB*(1<<20), "peak_rss_bytes")
		b.ReportMetric(r.RSSPerNode, "bytes_per_node")
		b.ReportMetric(r.HeapPerNode, "heap_bytes_per_node")
	}
}

// BenchmarkRefreshSteadyState measures the anti-entropy pass on a
// settled 10x10 gradient world. With digest suppression a converged
// epoch sends one compact digest per node instead of re-broadcasting
// full tuples, so the benchmark is dominated by digest encode/decode.
func BenchmarkRefreshSteadyState(b *testing.B) {
	epoch := newSteadyRefresh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}

// TestRefreshSteadyStateAllocs budgets one converged refresh epoch of
// BenchmarkRefreshSteadyState's world at its measured 411 allocations
// (DESIGN.md §8).
func TestRefreshSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	const budget = 411
	if got := testing.AllocsPerRun(20, newSteadyRefresh(t)); got > budget {
		t.Errorf("steady-state refresh epoch = %.0f allocs, budget %d", got, budget)
	}
}

// newSteadyRefresh settles one gradient on a 10x10 grid and returns a
// function that runs one refresh epoch over it.
func newSteadyRefresh(tb testing.TB) func() {
	tb.Helper()
	w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		tb.Fatal(err)
	}
	w.Settle(100000)
	return func() {
		w.RefreshAll()
		w.Settle(100000)
	}
}

// BenchmarkRefreshSteadyState100 is the sub-linearity probe: 100 nodes
// holding eight converged gradients each. Per-epoch broadcasts must
// stay at one digest frame per node regardless of how many structures
// are stored; the reported broadcasts/op and suppressed_ratio make the
// claim visible in bench output.
func BenchmarkRefreshSteadyState100(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
	for i, src := range []int{0, 9, 33, 45, 57, 66, 81, 99} {
		g := pattern.NewGradient(fmt.Sprintf("f%d", i))
		if _, err := w.Node(topology.NodeName(src)).Inject(g); err != nil {
			b.Fatal(err)
		}
	}
	w.Settle(100000)
	// Warm-up epoch: first refresh may full-announce tuples whose bytes
	// were never refresh-broadcast; afterwards digests take over.
	w.RefreshAll()
	w.Settle(100000)
	before := w.TotalStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RefreshAll()
		w.Settle(100000)
	}
	b.StopTimer()
	after := w.TotalStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.Broadcasts-before.Broadcasts)/n, "broadcasts/op")
	ann := after.RefreshAnnounced - before.RefreshAnnounced
	supp := after.RefreshSuppressed - before.RefreshSuppressed
	if total := ann + supp; total > 0 {
		b.ReportMetric(float64(supp)/float64(total), "suppressed_ratio")
	}
}

// BenchmarkRefreshSteadyState100x1k is the heavy-store variant of the
// sub-linearity probe: 100 nodes each holding 1,000 converged
// gradients. Steady-state epochs still suppress every re-announcement,
// but each node's digest now lists 1k (id, ver) entries across several
// frames; the reported digest_bytes/op is the per-epoch wire cost of
// that census — the baseline the ROADMAP's set-reconciliation item
// must beat.
func BenchmarkRefreshSteadyState100x1k(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
	for i := 0; i < 1_000; i++ {
		g := pattern.NewGradient(fmt.Sprintf("f%d", i))
		if _, err := w.Node(topology.NodeName(i % 100)).Inject(g); err != nil {
			b.Fatal(err)
		}
	}
	w.Settle(10_000_000)
	// Warm-up epoch: first refresh may full-announce tuples whose bytes
	// were never refresh-broadcast; afterwards digests take over.
	w.RefreshAll()
	w.Settle(10_000_000)
	before := w.Sim().Stats()
	beforeStats := w.TotalStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RefreshAll()
		w.Settle(10_000_000)
	}
	b.StopTimer()
	after := w.Sim().Stats()
	afterStats := w.TotalStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.PayloadBytes-before.PayloadBytes)/n, "digest_bytes/op")
	b.ReportMetric(float64(after.Broadcasts-before.Broadcasts)/n, "broadcasts/op")
	ann := afterStats.RefreshAnnounced - beforeStats.RefreshAnnounced
	supp := afterStats.RefreshSuppressed - beforeStats.RefreshSuppressed
	if total := ann + supp; total > 0 {
		b.ReportMetric(float64(supp)/float64(total), "suppressed_ratio")
	}
}

func BenchmarkHandlePacket(b *testing.B) {
	// Cost of one engine packet: a repeated announcement of a held
	// structure, read from its envelope.
	n, data := newHandlePacketWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.HandlePacket(topology.NodeName(1), data)
	}
}

// newHandlePacketWorld builds the BenchmarkHandlePacket fixture: a
// 2-node world and a pre-encoded gradient announcement, so each
// HandlePacket call after the first repeats an announcement of a
// structure the node holds: read the envelope, refresh the support row,
// keep the copy.
func newHandlePacketWorld(tb testing.TB, opts ...core.Option) (*core.Node, []byte) {
	tb.Helper()
	w := emulator.New(emulator.Config{Graph: topology.Line(2), NodeOptions: opts})
	n := w.Node(topology.NodeName(0))
	g := pattern.NewGradient("f")
	g.SetID(tuple.ID{Node: "other", Seq: 1})
	g.Val = 1
	data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: g})
	if err != nil {
		tb.Fatal(err)
	}
	return n, data
}

// TestEventDispatchAllocs budgets the event path with a subscriber
// attached: a repeated announcement emits no event, so HandlePacket
// stays at 1 alloc/op — the closure's topology.NodeName; the engine
// allocates nothing — and a local Flood inject with a MatchAll reaction —
// store, clone for the event, dispatch — holds at its measured 16. The
// effects buffer is recycled across calls and reactions are called
// straight off the subscription list; a fresh event slice per call and
// a per-call slice of matched reactions made it 18.
func TestEventDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	n, data := newHandlePacketWorld(t)
	n.Subscribe(tuple.MatchAll(), func(core.Event) {})
	if got := testing.AllocsPerRun(200, func() { n.HandlePacket(topology.NodeName(1), data) }); got != 1 {
		t.Errorf("HandlePacket with a subscriber = %.1f allocs/op, want 1", got)
	}

	const budget = 16
	w := emulator.New(emulator.Config{Graph: topology.Line(1)})
	solo := w.Node(topology.NodeName(0))
	events := 0
	solo.Subscribe(tuple.MatchAll(), func(core.Event) { events++ })
	got := testing.AllocsPerRun(200, func() {
		if _, err := solo.Inject(pattern.NewFlood("f")); err != nil {
			t.Fatal(err)
		}
	})
	if events != 201 { // AllocsPerRun makes one warm-up call
		t.Fatalf("reaction fired %d times over 201 injects", events)
	}
	if got > budget {
		t.Errorf("Inject with a subscriber = %.1f allocs/op, budget %d", got, budget)
	}
}

// TestDownhillRelayAllocs budgets one relay hop of a routed message
// (DESIGN.md §6): the middle node of a settled 3-node line, holding the
// inbox gradient at value 1, handles a Downhill it has not seen yet and
// relays it. The message senses the gradient three times — Evolve,
// ShouldStore, ShouldPropagate — and sensing copies nothing, so the
// budget holds only decoding, the evolved copy and the relay's encode.
// Sensing by a template read, which clones every match, cost 19
// allocations a time here: 76 per hop.
func TestDownhillRelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	const budget = 19
	w := emulator.New(emulator.Config{Graph: topology.Line(3)})
	if _, err := w.Node(topology.NodeName(2)).Inject(pattern.NewGradient("inbox")); err != nil {
		t.Fatal(err)
	}
	w.Settle(100000)
	relay := w.Node(topology.NodeName(1))
	const runs = 200
	frames := make([][]byte, runs+1) // AllocsPerRun makes one warm-up call
	for i := range frames {
		m := pattern.NewDownhill("inbox", tuple.I("seq", int64(i)), tuple.S("pad", "0123456789abcdef"))
		m.SetID(tuple.ID{Node: "sender", Seq: uint64(i + 1)})
		data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: m})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = data
	}
	before := relay.Stats().Broadcasts
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		relay.HandlePacket(topology.NodeName(0), frames[next])
		next++
	})
	if relayed := relay.Stats().Broadcasts - before; relayed != runs+1 {
		t.Fatalf("relayed %d of %d messages: the fixture no longer exercises a relay hop", relayed, runs+1)
	}
	if got > budget {
		t.Errorf("Downhill relay hop = %.0f allocs, budget %d", got, budget)
	}
}

// TestHandlePacketFirstContactAllocs pins an announcement of a
// structure the node has never seen, a fresh id per run, at 20 allocs:
// the node builds the tuple (7, what every repeated announcement cost
// too before the engine read envelopes first), adopts it, stores its
// copy and re-announces it. Reading the envelope first added nothing
// here: the same test read 20 before.
func TestHandlePacketFirstContactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	const want = 20
	n, _ := newHandlePacketWorld(t)
	const runs = 200
	frames := firstContactFrames(t, runs)
	from, next := topology.NodeName(1), 0
	got := testing.AllocsPerRun(runs, func() {
		n.HandlePacket(from, frames[next])
		next++
	})
	if got != want {
		t.Errorf("first-contact HandlePacket = %.1f allocs/op, want %d", got, want)
	}
}

// firstContactFrames encodes runs+1 announcements of gradients nobody
// has seen (AllocsPerRun makes one warm-up call).
func firstContactFrames(tb testing.TB, runs int) [][]byte {
	frames := make([][]byte, runs+1)
	for i := range frames {
		g := pattern.NewGradient("f")
		g.SetID(tuple.ID{Node: "other", Seq: uint64(i + 2)})
		g.Val = 1
		data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: g})
		if err != nil {
			tb.Fatal(err)
		}
		frames[i] = data
	}
	return frames
}

// TestBatchFlushAllocs budgets HandlePacket inside a batch, bracketed
// by BeginBatch and EndBatch as the simulated radio brackets a round,
// so the cost includes the flush that sends what the packet triggered:
// nothing for a repeated announcement or an echo, and for a first
// contact the adoption and its one announcement, as without a batch.
func TestBatchFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	batch := func(n *core.Node, from tuple.NodeID, frames ...[]byte) float64 {
		next := 0
		return testing.AllocsPerRun(200, func() {
			n.BeginBatch()
			n.HandlePacket(from, frames[next%len(frames)])
			n.EndBatch()
			next++
		})
	}
	n, data := newHandlePacketWorld(t)
	if got := batch(n, topology.NodeName(1), data); got > 1 {
		t.Errorf("repeated announcement + flush = %.1f allocs/op, budget 1", got)
	}
	n, _ = newHandlePacketWorld(t)
	before := n.Stats().Broadcasts
	if got := batch(n, topology.NodeName(1), firstContactFrames(t, 200)...); got > 20 {
		t.Errorf("first contact + flush = %.1f allocs/op, budget 20", got)
	}
	if d := n.Stats().Broadcasts - before; d != 201 {
		t.Fatalf("%d flushes announced 201 first contacts", d)
	}
	src, echo := newEchoWorld(t)
	if got := batch(src, topology.NodeName(1), echo); got != 0 {
		t.Errorf("echo + flush = %.1f allocs/op, want 0", got)
	}
}

// TestHandlePacketEchoAllocs budgets a plain tuple's echo: the source of
// a routed message hears its relay forward it back. The id is parked
// and stores no copy, so the engine counts a duplicate from the
// envelope and allocates nothing.
func TestHandlePacketEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	src, echo := newEchoWorld(t)
	from, dups := topology.NodeName(1), src.Stats().DupDropped
	got := testing.AllocsPerRun(200, func() { src.HandlePacket(from, echo) })
	if d := src.Stats().DupDropped - dups; d != 201 { // AllocsPerRun makes one warm-up call
		t.Fatalf("%d of 201 echoes counted as duplicates", d)
	}
	if got != 0 {
		t.Errorf("echo HandlePacket = %.1f allocs/op, want 0", got)
	}
}

// newEchoWorld settles a routed message from n0 to n2 on a 3-node line
// and returns n0 with the relay's forward of it, as n0 hears it back.
func newEchoWorld(tb testing.TB) (*core.Node, []byte) {
	w := emulator.New(emulator.Config{Graph: topology.Line(3)})
	if _, err := w.Node(topology.NodeName(2)).Inject(pattern.NewGradient("inbox")); err != nil {
		tb.Fatal(err)
	}
	w.Settle(100000)
	src := w.Node(topology.NodeName(0))
	m := pattern.NewDownhill("inbox", tuple.S("body", "hello"))
	if _, err := src.Inject(m); err != nil {
		tb.Fatal(err)
	}
	w.Settle(100000)
	echo, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: m})
	if err != nil {
		tb.Fatal(err)
	}
	return src, echo
}

// TestStatsAllocs: a node's counter snapshot and the field-wise sum
// World.Rollup and TotalStats apply per node allocate nothing.
func TestStatsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	n, _ := newHandlePacketWorld(t)
	var total core.Stats
	if got := testing.AllocsPerRun(200, func() { total = total.Add(n.Stats()) }); got != 0 {
		t.Errorf("Node.Stats + Stats.Add = %.1f allocs, want 0", got)
	}
}

// TestRelayRetainedBytes budgets what a routed message leaves on the
// heap for good, in the style of TestE16MemBudget: the post-GC
// HeapAlloc growth per message over 4,000 Downhill messages sent down
// a 3-node line to the inbox gradient's source. The destination keeps
// each delivered copy and its index slot, which also holds the copy's
// hop; the source, the relay and the destination keep one seq run for
// all of them. Measured 605 B; the budget adds 25 %. With a row per
// message at the destination it measured 1,024 B, and with one on the
// source and the relay too, and four id-keyed maps per stored tuple,
// 2,051 B.
func TestRelayRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; heap budgets hold only without -race")
	}
	const budget = 760
	w := emulator.New(emulator.Config{Graph: topology.Line(3)})
	if _, err := w.Node(topology.NodeName(2)).Inject(pattern.NewGradient("inbox")); err != nil {
		t.Fatal(err)
	}
	w.Settle(100000)
	src := w.Node(topology.NodeName(0))
	sent := 0
	send := func(k int) {
		for i := 0; i < k; i++ {
			m := pattern.NewDownhill("inbox", tuple.I("seq", int64(sent)), tuple.S("pad", "0123456789abcdef"))
			if _, err := src.Inject(m); err != nil {
				t.Fatal(err)
			}
			sent++
			w.Settle(100000)
		}
	}
	send(500) // past the store's small mode and the first map growths
	before := experiment.LiveHeapBytes()
	const msgs = 4000
	send(msgs)
	after := experiment.LiveHeapBytes()
	if got := w.Node(topology.NodeName(2)).StoreSize(); got != sent+1 {
		t.Fatalf("destination stores %d tuples, want %d messages + the gradient", got, sent)
	}
	perMsg := float64(int64(after)-int64(before)) / msgs
	t.Logf("%.0f B retained per message", perMsg)
	if perMsg > budget {
		t.Errorf("%.0f B retained per routed message, budget %d", perMsg, budget)
	}
	runtime.KeepAlive(w)
}

// TestRetractedFieldRetainedBytes budgets what a retracted field leaves
// on every node, in the style of TestRelayRetainedBytes: the post-GC
// HeapAlloc growth per node per cycle over 100 cycles of gradient
// inject, settle, retract, settle on a 20x20 grid, the sources taking
// turns among 4 nodes. A retracted id is one seq in its source's run, so
// the cycles leave nothing that grows. With a tombstone row per
// retracted field it measured 274 B.
func TestRetractedFieldRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; heap budgets hold only without -race")
	}
	const budget = 16
	const side = 20
	w := emulator.New(emulator.Config{Graph: topology.Grid(side, side, 1)})
	sources := []tuple.NodeID{topology.NodeName(0), topology.NodeName(side - 1),
		topology.NodeName(side * (side - 1)), topology.NodeName(side*side - 1)}
	cycle := func(c int) {
		src := w.Node(sources[c%len(sources)])
		id, err := src.Inject(pattern.NewGradient(fmt.Sprintf("f%d", c)))
		if err != nil {
			t.Fatal(err)
		}
		w.Settle(100000)
		src.Retract(id)
		w.Settle(100000)
	}
	for c := 0; c < 20; c++ { // past the first map and slice growths
		cycle(c)
	}
	before := experiment.LiveHeapBytes()
	const cycles = 100
	for c := 20; c < 20+cycles; c++ {
		cycle(c)
	}
	after := experiment.LiveHeapBytes()
	if got := w.Node(topology.NodeName(side + 1)).StoreSize(); got != 0 {
		t.Fatalf("a node still stores %d tuples after the retractions", got)
	}
	perNode := float64(int64(after)-int64(before)) / (side * side * cycles)
	t.Logf("%.1f B retained per node per cycle", perNode)
	if perNode > budget {
		t.Errorf("%.1f B retained per node per inject/retract cycle, budget %d", perNode, budget)
	}
	runtime.KeepAlive(w)
}

// BenchmarkObsOverhead prices the telemetry subsystem on the packet hot
// path. "baseline" is BenchmarkHandlePacket unchanged; "metrics" adds a
// registry scraping the node's counters (must cost nothing per packet —
// the registry reads component-owned atomics at scrape time only);
// "latencies" adds the trace-derived latency tracker; "jsonl" adds the
// full JSONL export sink.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, opts ...core.Option) {
		n, data := newHandlePacketWorld(b, opts...)
		reg := obs.NewRegistry()
		obs.RegisterStats(reg, n.Stats)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.HandlePacket(topology.NodeName(1), data)
		}
	}
	b.Run("baseline", func(b *testing.B) {
		n, data := newHandlePacketWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.HandlePacket(topology.NodeName(1), data)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		run(b)
	})
	b.Run("latencies", func(b *testing.B) {
		lat := obs.NewLatencies(nil, nil, obs.RoundBuckets)
		run(b, core.WithTracer(lat.Tracer()))
	})
	b.Run("jsonl", func(b *testing.B) {
		sink := obs.NewJSONLSink(io.Discard, nil, nil, 0)
		defer func() { _ = sink.Close() }()
		run(b, core.WithTracer(sink.Tracer()))
	})
}

// TestHandlePacketTelemetryAllocs is the PR's alloc-regression guard:
// with the metrics registry bound and the latency tracker tracing,
// the packet path may cost at most one extra allocation per packet
// over the uninstrumented engine. It also covers the trace-context
// path: with sampling off the hot path must not move at all, and
// decoding a version-2 traced announcement must cost zero extra
// allocations (the 16-byte context parses into scratch fields).
func TestHandlePacketTelemetryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	measure := func(frame []byte, opts ...core.Option) float64 {
		n, data := newHandlePacketWorld(t, opts...)
		if frame != nil {
			data = frame
		}
		reg := obs.NewRegistry()
		obs.RegisterStats(reg, n.Stats)
		return testing.AllocsPerRun(200, func() {
			n.HandlePacket(topology.NodeName(1), data)
		})
	}
	base := measure(nil)
	if base != 1 { // the closure's topology.NodeName; the engine allocates nothing
		t.Errorf("uninstrumented HandlePacket = %.1f allocs/op, want 1", base)
	}
	lat := obs.NewLatencies(nil, nil, obs.RoundBuckets)
	instrumented := measure(nil, core.WithTracer(lat.Tracer()))
	if instrumented > base+1 {
		t.Errorf("telemetry costs %.1f allocs/packet over the %.1f baseline (budget: 1)",
			instrumented-base, base)
	}

	// Sampling off is the shipped default: the knob being present (with
	// a tracer attached) must not add a single allocation.
	lat2 := obs.NewLatencies(nil, nil, obs.RoundBuckets)
	samplingOff := measure(nil, core.WithTracer(lat2.Tracer()), core.WithTraceSampling(0))
	if samplingOff > base+1 {
		t.Errorf("sampling-off path costs %.1f allocs/packet over the %.1f baseline (budget: 1)",
			samplingOff-base, base)
	}

	// A version-2 frame carrying a trace context: the 16 extra bytes
	// decode into value fields, so handling stays at the baseline even
	// though every event now carries span identity.
	g := pattern.NewGradient("f")
	g.SetID(tuple.ID{Node: "other", Seq: 1})
	g.Val = 1
	tracedFrame, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: g,
		Trace: wire.TraceCtx{TraceID: 0xabc, Span: 0xdef}})
	if err != nil {
		t.Fatal(err)
	}
	traced := measure(tracedFrame)
	if traced > base {
		t.Errorf("traced packet costs %.1f allocs/packet over the %.1f baseline (budget: 0)",
			traced-base, base)
	}
	lat3 := obs.NewLatencies(nil, nil, obs.RoundBuckets)
	tracedInstrumented := measure(tracedFrame, core.WithTracer(lat3.Tracer()), core.WithTraceSampling(1))
	if tracedInstrumented > base+1 {
		t.Errorf("traced+instrumented packet costs %.1f allocs/packet over the %.1f baseline (budget: 1)",
			tracedInstrumented-base, base)
	}
}
