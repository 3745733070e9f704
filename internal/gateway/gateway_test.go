package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/retry"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// TestCountersFieldsInDeclarationOrder: fields, the list Stats loops
// over, names every counter once, in declaration order.
func TestCountersFieldsInDeclarationOrder(t *testing.T) {
	var c counters[int64]
	got := c.fields()
	v := reflect.ValueOf(&c).Elem()
	if len(got) != v.NumField() {
		t.Fatalf("fields lists %d counters, counters declares %d", len(got), v.NumField())
	}
	for i, p := range got {
		if p != v.Field(i).Addr().Interface() {
			t.Errorf("fields()[%d] is not %s", i, v.Type().Field(i).Name)
		}
	}
}

// newTestNode builds a standalone single-node middleware instance; the
// gateway surface is purely local, so no peers are needed.
func newTestNode(t testing.TB) *core.Node {
	t.Helper()
	g := topology.New()
	g.AddNode("gw")
	sim := transport.NewSim(g, transport.SimConfig{})
	ep := sim.Attach("gw", nil)
	n := core.New(ep)
	sim.Bind("gw", n)
	return n
}

func newTestGateway(t *testing.T, cfg Config) (*core.Node, *Gateway) {
	t.Helper()
	n := newTestNode(t)
	gw, err := Serve(n, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	return n, gw
}

// resize gives a served gateway a smaller replay ring and connection
// queue than it serves with, before any event or connection uses them.
// Each is written under the lock its readers take.
func resize(gw *Gateway, ring, queue int) {
	gw.evMu.Lock()
	gw.ring = newEventRing(ring)
	gw.evMu.Unlock()
	gw.mu.Lock()
	gw.queue = queue
	gw.mu.Unlock()
}

func testClient(t *testing.T, addr string) *Client {
	t.Helper()
	c := Dial(addr, ClientConfig{
		Policy:         retry.New(42),
		RequestTimeout: 3 * time.Second,
	})
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func waitEvent(t *testing.T, s *Subscription, what string) SubEvent {
	t.Helper()
	select {
	case ev, ok := <-s.Events:
		if !ok {
			t.Fatalf("waiting for %s: subscription channel closed", what)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	panic("unreachable")
}

// waitTupleEvent skips non-tuple deliveries (neighbor noise) until a
// tuple event of the wanted type arrives.
func waitTupleEvent(t *testing.T, s *Subscription, typ string) SubEvent {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-s.Events:
			if !ok {
				t.Fatalf("waiting for %s: subscription channel closed", typ)
			}
			if ev.Type == typ && ev.Tuple != nil {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for a %s tuple event", typ)
		}
	}
}

func TestGatewayInjectReadRoundTrip(t *testing.T) {
	_, gw := newTestGateway(t, Config{})
	c := testClient(t, gw.Addr())

	id, err := c.Inject(pattern.NewFlood("notice", tuple.S("payload", "gateway-payload")))
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if id.IsZero() {
		t.Fatal("inject returned a zero id")
	}
	got, err := c.Read(pattern.ByName(pattern.KindFlood, "notice"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("read returned %d tuples, want 1", len(got))
	}
	if got[0].Content().GetString("payload") != "gateway-payload" {
		t.Fatalf("read tuple lost its payload: %v", got[0].Content())
	}
	st := gw.Stats()
	if st.Injects != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v, want 1 inject / 1 read", st)
	}
}

func TestGatewaySubscribeLiveAndUnsubscribe(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	c := testClient(t, gw.Addr())

	sub, err := c.Subscribe(pattern.ByName(pattern.KindFlood, "live"))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := n.Inject(pattern.NewFlood("live")); err != nil {
		t.Fatalf("node inject: %v", err)
	}
	ev := waitTupleEvent(t, sub, core.TupleArrived.String())
	if ev.Tuple.Content().GetString("name") != "live" {
		t.Fatalf("event carried the wrong tuple: %v", ev.Tuple)
	}
	if ev.GSeq == 0 {
		t.Fatal("event missing its gateway sequence")
	}

	if err := c.Unsubscribe(sub); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	if _, err := n.Inject(pattern.NewFlood("live")); err != nil {
		t.Fatal(err)
	}
	// The channel is closed; any buffered events drain, then ok=false.
	deadline := time.After(3 * time.Second)
	for {
		select {
		case _, ok := <-sub.Events:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscription channel never closed after Unsubscribe")
		}
	}
}

// readFrame reads one length-prefixed frame from r and unmarshals it
// into v, without reading ahead: the tests' own reader, independent of
// the buffered frameReader the gateway and the client use.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("gateway: truncated frame: %w", err)
	}
	return json.Unmarshal(body, v)
}

// rawConn speaks the wire protocol directly, for tests that need exact
// control over sequences and connection lifecycle.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) send(req Request) {
	r.t.Helper()
	if err := WriteFrame(r.nc, req); err != nil {
		r.t.Fatalf("write frame: %v", err)
	}
}

func (r *rawConn) recv() Frame {
	r.t.Helper()
	_ = r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var fr Frame
	if err := readFrame(r.nc, &fr); err != nil {
		r.t.Fatalf("read frame: %v", err)
	}
	return fr
}

func (r *rawConn) recvResp() Response {
	r.t.Helper()
	fr := r.recv()
	if fr.Resp == nil {
		r.t.Fatalf("expected a response frame, got %+v", fr)
	}
	return *fr.Resp
}

func injectN(t *testing.T, n *core.Node, name string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if _, err := n.Inject(pattern.NewFlood(name)); err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
	}
}

func TestGatewayReplayFromSeqHit(t *testing.T) {
	n, gw := newTestGateway(t, Config{})

	// First connection observes the prefix, then disconnects.
	c1 := dialRaw(t, gw.Addr())
	c1.send(Request{Op: OpSubscribe, Seq: 1})
	ack := c1.recvResp()
	if !ack.OK || ack.Sub == 0 {
		t.Fatalf("subscribe ack = %+v", ack)
	}
	epoch := ack.Epoch
	injectN(t, n, "replay", 3)
	var last uint64
	for i := 0; i < 3; i++ {
		fr := c1.recv()
		if fr.Event == nil {
			t.Fatalf("expected event, got %+v", fr)
		}
		last = fr.Event.GSeq
	}
	_ = c1.nc.Close()

	// Events continue while the client is away.
	injectN(t, n, "replay", 2)

	// Reconnect with replay-from-seq: the ack reports a hit and the two
	// missed events arrive before anything newer.
	c2 := dialRaw(t, gw.Addr())
	c2.send(Request{Op: OpSubscribe, Seq: 1, FromSeq: last, Epoch: epoch})
	ack2 := c2.recvResp()
	if ack2.Replay != ReplayHit {
		t.Fatalf("replay = %q, want %q (ack %+v)", ack2.Replay, ReplayHit, ack2)
	}
	for want := last + 1; want <= last+2; want++ {
		fr := c2.recv()
		if fr.Event == nil {
			t.Fatalf("expected replayed event, got %+v", fr)
		}
		if fr.Event.GSeq != want {
			t.Fatalf("replayed gseq = %d, want %d", fr.Event.GSeq, want)
		}
		if !fr.Event.Replay {
			t.Fatalf("replayed event %d not marked as replay", fr.Event.GSeq)
		}
	}
	if gw.Stats().ReplayHits != 1 || gw.Stats().ReplayEvents != 2 {
		t.Fatalf("replay stats = %+v", gw.Stats())
	}
}

func TestGatewayReplayMissOnRingEviction(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	resize(gw, 4, queueSize)
	injectN(t, n, "evict", 8)

	c := dialRaw(t, gw.Addr())
	c.send(Request{Op: OpSubscribe, Seq: 1, FromSeq: 1, Epoch: gw.Epoch()})
	ack := c.recvResp()
	if ack.Replay != ReplayMiss {
		t.Fatalf("replay = %q, want %q", ack.Replay, ReplayMiss)
	}
	// Whatever the ring still holds is replayed anyway (newest 4).
	fr := c.recv()
	if fr.Event == nil || fr.Event.GSeq != 5 {
		t.Fatalf("first retained event = %+v, want gseq 5", fr)
	}
	if gw.Stats().ReplayMisses != 1 {
		t.Fatalf("stats = %+v, want 1 replay miss", gw.Stats())
	}
}

func TestGatewayEpochMismatchIsMiss(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	injectN(t, n, "epoch", 2)

	c := dialRaw(t, gw.Addr())
	// A continuation from some other gateway instance: sequence numbers
	// are meaningless, so the server resets to 0 and reports a miss.
	c.send(Request{Op: OpSubscribe, Seq: 1, FromSeq: 99, Epoch: "deadbeef00000000"})
	ack := c.recvResp()
	if ack.Replay != ReplayMiss {
		t.Fatalf("replay = %q, want %q", ack.Replay, ReplayMiss)
	}
	if ack.Epoch == "deadbeef00000000" || ack.Epoch == "" {
		t.Fatalf("ack epoch = %q, want the server's own", ack.Epoch)
	}
	// The new instance's full retained history is replayed from 0.
	fr := c.recv()
	if fr.Event == nil || fr.Event.GSeq != 1 {
		t.Fatalf("first replayed event = %+v, want gseq 1", fr)
	}
}

func TestGatewayMaxClientsRejected(t *testing.T) {
	_, gw := newTestGateway(t, Config{MaxClients: 1})
	c1 := dialRaw(t, gw.Addr())
	c1.send(Request{Op: OpPing, Seq: 1})
	if resp := c1.recvResp(); !resp.OK {
		t.Fatalf("first client rejected: %+v", resp)
	}
	c2 := dialRaw(t, gw.Addr())
	resp := c2.recvResp()
	if resp.Err == "" {
		t.Fatalf("second client admitted past the cap: %+v", resp)
	}
	if gw.Stats().Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 rejection", gw.Stats())
	}
}

func TestGatewaySlowConsumerDropAccounting(t *testing.T) {
	// White-box: a connection whose outbound queue holds one frame.
	// Drops must be counted per subscription and surfaced cumulatively
	// on later event frames — accounted, never silent.
	gw := &Gateway{queue: 1}
	c := &conn{
		gw:     gw,
		out:    make(chan []byte, 1),
		subs:   make(map[uint64]*serverSub),
		closec: make(chan struct{}),
	}
	sub := &serverSub{id: 1, tpl: tuple.MatchAll()}
	entry := func(seq uint64) ringEntry {
		tup := pattern.NewFlood("drops")
		data, err := tuple.MarshalTupleJSON(tup)
		if err != nil {
			t.Fatal(err)
		}
		return ringEntry{seq: seq, typ: core.TupleArrived.String(), tup: tup, shared: append([]byte(tupleMember), data...)}
	}
	decode := func(buf []byte) Event {
		var fr Frame
		if err := readFrame(bytes.NewReader(buf), &fr); err != nil {
			t.Fatalf("decode queued frame: %v", err)
		}
		if fr.Event == nil {
			t.Fatalf("queued frame is not an event")
		}
		return *fr.Event
	}

	c.mu.Lock()
	if !c.enqueueLocked(sub, entry(1), false) {
		t.Fatal("first event should fit")
	}
	if c.enqueueLocked(sub, entry(2), false) || c.enqueueLocked(sub, entry(3), false) {
		t.Fatal("queue-full events should drop")
	}
	c.mu.Unlock()
	if got := sub.drops.Load(); got != 2 {
		t.Fatalf("sub drops = %d, want 2", got)
	}
	if gw.stats.EventsDropped.Load() != 2 || gw.stats.EventsDelivered.Load() != 1 {
		t.Fatalf("gateway stats = %+v", gw.Stats())
	}
	first := decode(<-c.out)
	if first.GSeq != 1 || first.DSeq != 1 || first.Drops != 0 {
		t.Fatalf("first event = %+v, want gseq 1 dseq 1 drops 0", first)
	}
	// With the queue drained, the next event carries the cumulative
	// drop count, so the client can verify its sequence gap is covered.
	// Dropped events consume delivery-sequence numbers too, so the DSeq
	// gap (2, 3 missing) exactly equals the drop delta.
	c.mu.Lock()
	if !c.enqueueLocked(sub, entry(4), false) {
		t.Fatal("drained queue should accept")
	}
	c.mu.Unlock()
	next := decode(<-c.out)
	if next.GSeq != 4 || next.DSeq != 4 || next.Drops != 2 {
		t.Fatalf("post-drop event = %+v, want gseq 4 dseq 4 drops 2", next)
	}
}

func TestGatewayClientReconnectReplayAcrossRestart(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	addr := gw.Addr()
	c := Dial(addr, ClientConfig{Policy: retry.New(7), RequestTimeout: 3 * time.Second})
	defer c.Close()

	sub, err := c.Subscribe(pattern.ByName(pattern.KindFlood, "restart"))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := n.Inject(pattern.NewFlood("restart")); err != nil {
		t.Fatal(err)
	}
	ev := waitTupleEvent(t, sub, core.TupleArrived.String())
	firstEpoch := ev.Epoch

	// Kill the gateway instance; its ring and epoch die with it. The
	// same listen address comes back under a fresh instance.
	if err := gw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	gw2, err := Serve(n, addr, Config{})
	if err != nil {
		t.Fatalf("restart gateway: %v", err)
	}
	defer gw2.Close()

	// The client reconnects and resubscribes on its own; the epoch
	// change surfaces as a Resync marker so the consumer knows to
	// rebuild (duplicates across the seam are possible, gaps are not).
	var sawResync bool
	deadline := time.After(10 * time.Second)
resync:
	for {
		select {
		case ev := <-sub.Events:
			if ev.Resync {
				if ev.Epoch == firstEpoch {
					t.Fatalf("resync kept the old epoch %q", ev.Epoch)
				}
				sawResync = true
				break resync
			}
		case <-deadline:
			t.Fatal("client never resynced after gateway restart")
		}
	}
	if !sawResync {
		t.Fatal("no resync marker")
	}
	// Live delivery works again on the new instance.
	if _, err := n.Inject(pattern.NewFlood("restart")); err != nil {
		t.Fatal(err)
	}
	ev = waitTupleEvent(t, sub, core.TupleArrived.String())
	if ev.Epoch == firstEpoch {
		t.Fatalf("post-restart event still in old epoch %q", ev.Epoch)
	}
	if sub.GapViolations() != 0 {
		t.Fatalf("client recorded %d unaccounted gaps", sub.GapViolations())
	}
}

func TestGatewayClientRequestTimeoutAndRetry(t *testing.T) {
	// No server: every RPC burns its retry budget and fails.
	c := Dial("127.0.0.1:1", ClientConfig{
		Policy:         retry.New(3),
		RequestTimeout: 200 * time.Millisecond,
	})
	defer c.Close()
	start := time.Now()
	if _, _, err := c.Ping(); err == nil {
		t.Fatal("ping against nothing succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retry budget unbounded: took %v", elapsed)
	}
}

// TestGatewayClientFreshSubscribeSeesRingReplay is the regression test
// for the subscribe-ack/replay race: tuples injected BEFORE the client
// subscribes are only ever delivered through the silent ring replay
// directly behind the subscribe ack. The client must have the server
// sub id registered before it dispatches those frames, or the whole
// replay vanishes and a mirror built from the event stream can never
// converge.
func TestGatewayClientFreshSubscribeSeesRingReplay(t *testing.T) {
	n, gw := newTestGateway(t, Config{})

	const pre = 16
	for i := 0; i < pre; i++ {
		if _, err := n.Inject(pattern.NewFlood(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	c := testClient(t, gw.Addr())
	sub, err := c.Subscribe(tuple.MatchAll())
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	seen := make(map[string]bool)
	deadline := time.After(5 * time.Second)
	for len(seen) < pre {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatal("subscription channel closed mid-replay")
			}
			if ev.Type != core.TupleArrived.String() || ev.Tuple == nil {
				continue
			}
			seen[ev.Tuple.Content().GetString("name")] = true
		case <-deadline:
			t.Fatalf("replay delivered only %d/%d pre-subscribe tuples: %v", len(seen), pre, seen)
		}
	}
	if sub.GapViolations() != 0 {
		t.Fatalf("replay recorded %d unaccounted gaps", sub.GapViolations())
	}
}

// TestGatewayUnsubscribeRacesLiveDispatch pins the send/close race: the
// read loop used to check the closed flag and then send to Events
// unlocked, so an event racing a concurrent Unsubscribe panicked the
// whole process with a send on a closed channel. Deliveries and the
// close now serialize on the subscription's send lock; under -race this
// schedule flagged the old code.
func TestGatewayUnsubscribeRacesLiveDispatch(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	c := Dial(gw.Addr(), ClientConfig{
		Policy:         retry.New(11),
		RequestTimeout: 3 * time.Second,
	})
	// Depth 1 keeps deliveries blocked on the channel mid-Unsubscribe,
	// exercising the abort-a-blocked-send path as well.
	c.eventBuffer = 1
	t.Cleanup(func() { _ = c.Close() })

	for i := 0; i < 20; i++ {
		sub, err := c.Subscribe(tuple.MatchAll())
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		stop := make(chan struct{})
		injectorDone := make(chan struct{})
		go func() {
			defer close(injectorDone)
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := n.Inject(pattern.NewFlood("race")); err != nil {
						return
					}
				}
			}
		}()
		time.Sleep(2 * time.Millisecond) // let deliveries flow, then tear down mid-stream
		if err := c.Unsubscribe(sub); err != nil {
			t.Fatalf("unsubscribe %d: %v", i, err)
		}
		close(stop)
		<-injectorDone
		for range sub.Events {
			// drain until the closed channel ends the loop
		}
	}
}

// TestGatewayFilteredSubscriptionNoFalseGaps: a subscription with a
// narrow template legitimately skips the global sequence numbers held
// by non-matching events. Gap-vs-drop verification runs in the
// per-subscription delivery sequence, so those skips must not count as
// violations.
func TestGatewayFilteredSubscriptionNoFalseGaps(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	c := testClient(t, gw.Addr())
	sub, err := c.Subscribe(pattern.ByName(pattern.KindFlood, "wanted"))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	const wanted = 5
	for i := 0; i < wanted; i++ {
		injectN(t, n, "noise", 3) // consume global sequence numbers the filter skips
		if _, err := n.Inject(pattern.NewFlood("wanted")); err != nil {
			t.Fatal(err)
		}
	}
	var prevGSeq uint64
	sawGSeqGap := false
	for i := 0; i < wanted; i++ {
		ev := waitTupleEvent(t, sub, core.TupleArrived.String())
		if prevGSeq != 0 && ev.GSeq > prevGSeq+1 {
			sawGSeqGap = true
		}
		prevGSeq = ev.GSeq
		if ev.DSeq != uint64(i+1) {
			t.Fatalf("delivery %d has dseq %d, want contiguous %d", i, ev.DSeq, i+1)
		}
	}
	if !sawGSeqGap {
		t.Fatal("test never exercised a global-sequence gap; it proves nothing")
	}
	if got := sub.GapViolations(); got != 0 {
		t.Fatalf("filtered subscription recorded %d false gap violations", got)
	}
}

// TestGatewayDropCounterResetAcrossResubscribe: every subscribe ack
// attaches to a fresh server-side subscription whose delivery sequence
// and drop counter restart at zero, so the client-side trackers must
// reset too — a stale counter turned the next legitimate drop-covered
// gap into a false violation after a same-epoch reconnect.
func TestGatewayDropCounterResetAcrossResubscribe(t *testing.T) {
	c := &Client{closec: make(chan struct{}), route: make(map[uint64]*Subscription)}
	s := &Subscription{
		Events: make(chan SubEvent, 4),
		done:   make(chan struct{}),
	}
	s.epoch = "e1"
	s.serverID = 1
	s.lastSeq = 40
	s.lastDSeq = 9
	s.drops = 5
	c.subs = []*Subscription{s}

	c.applySubscribeAck(s, Response{OK: true, Sub: 2, Epoch: "e1", Replay: ReplayHit}, nil)
	if s.needResync {
		t.Fatal("same-epoch replay hit must not force a resync")
	}
	if s.lastSeq != 40 {
		t.Fatalf("lastSeq = %d, want 40 (the global sequence survives a same-epoch reconnect)", s.lastSeq)
	}
	if s.drops != 0 || s.lastDSeq != 0 {
		t.Fatalf("per-attachment trackers not reset: drops=%d lastDSeq=%d", s.drops, s.lastDSeq)
	}
	if got := s.Drops(); got != 5 {
		t.Fatalf("Drops() = %d, want 5 (prior drops stay in the cumulative count)", got)
	}

	// First post-reconnect delivery: one matched event was dropped ahead
	// of it (dseq 1), so it arrives as dseq 2 with drops 1. Comparing
	// against the stale pre-reconnect counter (5) used to flag this as
	// an unaccounted gap.
	c.dispatchEvent(Event{Sub: 2, GSeq: 43, DSeq: 2, Drops: 1}, nil)
	if got := s.GapViolations(); got != 0 {
		t.Fatalf("gap violations = %d, want 0 (gap is covered in the new counter space)", got)
	}
	ev := <-s.Events
	if ev.Drops != 6 {
		t.Fatalf("delivered Drops = %d, want cumulative 6", ev.Drops)
	}
	// A genuinely unaccounted gap in the new space is still caught.
	c.dispatchEvent(Event{Sub: 2, GSeq: 45, DSeq: 5, Drops: 1}, nil)
	if got := s.GapViolations(); got != 1 {
		t.Fatalf("gap violations = %d, want 1 for an uncovered delivery gap", got)
	}
}

// TestGatewayClientRetriesThroughMidRPCDisconnect: a connection that
// dies with an RPC in flight is a transport error, not a gateway
// verdict — the request must consume its retry budget and succeed on
// the reconnect, not fail permanently (the transparent-reconnect
// contract the client fleet relies on under faults).
func TestGatewayClientRetriesThroughMidRPCDisconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dropFirst atomic.Bool
	dropFirst.Store(true)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				for {
					var req Request
					if err := readFrame(nc, &req); err != nil {
						return
					}
					if dropFirst.CompareAndSwap(true, false) {
						return // kill the connection with the request in flight
					}
					_ = WriteFrame(nc, Frame{Resp: &Response{Seq: req.Seq, OK: true, Epoch: "fake", NextSeq: 7}})
				}
			}(nc)
		}
	}()

	c := Dial(ln.Addr().String(), ClientConfig{
		Policy:         retry.New(5),
		RequestTimeout: 2 * time.Second,
	})
	defer c.Close()
	epoch, _, err := c.Ping()
	if err != nil {
		t.Fatalf("ping should retry through a mid-RPC disconnect: %v", err)
	}
	if epoch != "fake" {
		t.Fatalf("epoch = %q, want the reconnect's answer", epoch)
	}
}

// TestGatewayUnsubscribeStaysOnItsConnection: the gateway numbers
// subscriptions per connection from 1, so a server-side id read on one
// connection names another handle's subscription on the next. When the
// connection dies with an unsubscribe in flight, the subscription died
// with it — the retry must not re-send the id on the replacement
// connection, where it would cancel the other handle.
func TestGatewayUnsubscribeStaysOnItsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// unsubs records (connection, sub id) for every unsubscribe the fake
	// gateway reads, before it answers: once Unsubscribe returns, all it
	// sent is recorded.
	var mu sync.Mutex
	var unsubs [][2]uint64
	go func() {
		for conn := uint64(1); ; conn++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn uint64, nc net.Conn) {
				defer nc.Close()
				var nextSub uint64 // per connection, like the real gateway
				for {
					var req Request
					if err := readFrame(nc, &req); err != nil {
						return
					}
					resp := Response{Seq: req.Seq, OK: true, Epoch: "fake"}
					switch req.Op {
					case OpSubscribe:
						nextSub++
						resp.Sub = nextSub
					case OpUnsubscribe:
						mu.Lock()
						unsubs = append(unsubs, [2]uint64{conn, req.Sub})
						mu.Unlock()
						if conn == 1 {
							return // the first connection dies with the unsubscribe in flight
						}
					}
					_ = WriteFrame(nc, Frame{Resp: &resp})
				}
			}(conn, nc)
		}
	}()

	c := Dial(ln.Addr().String(), ClientConfig{
		Policy:         retry.New(5),
		RequestTimeout: 2 * time.Second,
	})
	defer c.Close()
	a, err := c.Subscribe(tuple.MatchAll()) // sub 1 on the first connection
	if err != nil {
		t.Fatalf("subscribe a: %v", err)
	}
	// sub 2 on the first connection; the resubscribe sweep makes it sub 1
	// on the replacement.
	if _, err := c.Subscribe(tuple.MatchAll()); err != nil {
		t.Fatalf("subscribe b: %v", err)
	}
	if err := c.Unsubscribe(a); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, u := range unsubs {
		if u != [2]uint64{1, 1} {
			t.Errorf("unsubscribe of sub %d sent on connection %d; a's id 1 was issued on connection 1 only", u[1], u[0])
		}
	}
}

// TestGatewaySubscribeRetryDoesNotDuplicateServerSub: Subscribe's
// first attempt often races the connection manager's dial and fails;
// the manager then establishes the subscription itself, and the retry
// must notice the handle is already attached instead of installing a
// second server-side subscription the client orphans.
func TestGatewaySubscribeRetryDoesNotDuplicateServerSub(t *testing.T) {
	_, gw := newTestGateway(t, Config{})
	c := testClient(t, gw.Addr())
	sub, err := c.Subscribe(tuple.MatchAll())
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer func() { _ = c.Unsubscribe(sub) }()
	// Give a racing duplicate subscribe RPC time to land if one was sent.
	time.Sleep(200 * time.Millisecond)
	if got := gw.Stats().Subscriptions; got != 1 {
		t.Fatalf("server-side subscriptions = %d, want exactly 1", got)
	}
}

// TestGatewaySubscribeAckNeverBlocksFanoutLock: queueing the subscribe
// ack happens under the connection lock the event fan-out path (and
// through it the engine dispatch goroutine) waits on, so it must never
// block on a wedged client — the connection is dropped instead.
func TestGatewaySubscribeAckNeverBlocksFanoutLock(t *testing.T) {
	gw := &Gateway{queue: 1, ring: newEventRing(4)}
	c := &conn{
		gw:     gw,
		out:    make(chan []byte, 1),
		subs:   make(map[uint64]*serverSub),
		closec: make(chan struct{}),
	}
	c.out <- []byte{0} // wedge the outbound queue

	type result struct {
		resp  *Response
		fatal bool
	}
	done := make(chan result, 1)
	go func() {
		resp, fatal := c.handleSubscribe(Request{Op: OpSubscribe, Seq: 1})
		done <- result{resp, fatal}
	}()
	select {
	case r := <-done:
		if !r.fatal || r.resp != nil {
			t.Fatalf("handleSubscribe = (%+v, fatal=%v), want (nil, fatal=true)", r.resp, r.fatal)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handleSubscribe blocked on a full outbound queue")
	}
	// The lock the fan-out path needs is free again immediately.
	locked := make(chan struct{})
	go func() {
		c.mu.Lock()
		c.mu.Unlock() //nolint:staticcheck // probing lock availability
		close(locked)
	}()
	select {
	case <-locked:
	case <-time.After(time.Second):
		t.Fatal("connection lock still held after the wedged subscribe")
	}
}
