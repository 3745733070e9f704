package gateway

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/core"
	"tota/internal/tuple"
)

// Sizes of the serving surface.
const (
	// ringSize is the replay ring capacity: how many recent events a
	// reconnecting client can recover by sequence.
	ringSize = 4096
	// queueSize is the per-connection outbound queue bound; a client
	// that reads slower than its subscriptions produce drops events
	// past this depth (counted, never silent).
	queueSize = 256
	// DefaultMaxClients bounds concurrent client connections per
	// gateway.
	DefaultMaxClients = 1024
	// writeTimeout bounds one frame write so a wedged client socket
	// cannot pin a writer goroutine forever.
	writeTimeout = 10 * time.Second
)

// Config tunes a Gateway; zero values select the defaults above. Inject
// requests resolve tuple kinds through tuple.DefaultRegistry.
type Config struct {
	// MaxClients bounds concurrent connections; further connections
	// are rejected with an error frame and closed.
	MaxClients int
	// Logger receives connection-level errors; nil discards them.
	Logger *slog.Logger
}

// counters declares each gateway counter once: its field, the metric it
// is exposed as (obs.RegisterStats reads the tags) and its help text.
// Stats instantiates it with int64 snapshots, the gateway's live set
// with atomic.Int64. Clients and Subscriptions are current counts, so
// they are exposed as gauges.
type counters[C any] struct {
	Clients         C `metric:"tota_gateway_clients" help:"Currently connected gateway clients."`
	Subscriptions   C `metric:"tota_gateway_subscriptions" help:"Currently live client subscriptions."`
	Rejected        C `metric:"tota_gateway_clients_rejected_total" help:"Connections refused at the max-clients cap."`
	Injects         C `metric:"tota_gateway_injects_total" help:"Successful inject RPCs."`
	Reads           C `metric:"tota_gateway_reads_total" help:"Successful read RPCs."`
	EventsDelivered C `metric:"tota_gateway_events_delivered_total" help:"Event frames queued to client connections."`
	EventsDropped   C `metric:"tota_gateway_events_dropped_total" help:"Events lost to full per-connection queues (slow consumers)."`
	ReplayHits      C `metric:"tota_gateway_replay_hits_total" help:"Subscribe-time replays fully served from the ring."`
	ReplayMisses    C `metric:"tota_gateway_replay_misses_total" help:"Subscribe-time replays that could not be completed (epoch change or ring eviction)."`
	ReplayEvents    C `metric:"tota_gateway_replayed_events_total" help:"Events re-delivered from the replay ring."`
}

// fields lists c's counters in declaration order (a test holds it to
// the struct).
func (c *counters[C]) fields() [10]*C {
	return [...]*C{
		&c.Clients, &c.Subscriptions, &c.Rejected, &c.Injects, &c.Reads,
		&c.EventsDelivered, &c.EventsDropped, &c.ReplayHits, &c.ReplayMisses,
		&c.ReplayEvents,
	}
}

// Stats is a snapshot of the gateway's counters, declared in counters.
type Stats counters[int64]

// Gateway serves the client RPC surface for one middleware node.
type Gateway struct {
	node  *core.Node
	cfg   Config
	ln    net.Listener
	epoch string
	// ring and queue (each connection's outbound queue bound) start at
	// ringSize and queueSize. Tests that need them smaller replace them
	// under evMu and mu, the locks their readers take.
	ring  *eventRing
	queue int

	// evMu serializes event sequencing: engine dispatches may arrive on
	// several goroutines (transport receive loop, refresh ticker,
	// local API calls), and sequence assignment, ring append and
	// fan-out must agree on one order.
	evMu sync.Mutex
	gseq uint64

	mu      sync.Mutex
	conns   map[*conn]struct{}
	closed  bool
	coreSub core.SubID

	stats counters[atomic.Int64]
	wg    sync.WaitGroup
}

// Serve starts a gateway for node on addr (e.g. "127.0.0.1:0").
func Serve(node *core.Node, addr string, cfg Config) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = DefaultMaxClients
	}
	g := &Gateway{
		node:  node,
		cfg:   cfg,
		ln:    ln,
		epoch: newEpoch(),
		ring:  newEventRing(ringSize),
		queue: queueSize,
		conns: make(map[*conn]struct{}),
	}
	// One engine subscription carries every client subscription: the
	// gateway observes all events, sequences them, retains them in the
	// ring and fans them out to matching per-client queues.
	g.coreSub = node.Subscribe(tuple.MatchAll(), g.onEvent)
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// newEpoch mints an instance identity: clients detect a gateway
// restart (and therefore a reset sequence space) by epoch change.
func newEpoch() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Addr returns the bound listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Epoch returns the gateway's instance identity.
func (g *Gateway) Epoch() string { return g.epoch }

// Stats snapshots the counters.
func (g *Gateway) Stats() Stats {
	var s Stats
	out := (*counters[int64])(&s).fields()
	for i, c := range g.stats.fields() {
		*out[i] = c.Load()
	}
	return s
}

// Close stops accepting, detaches from the node and closes every
// client connection.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	conns := make([]*conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	g.node.Unsubscribe(g.coreSub)
	err := g.ln.Close()
	for _, c := range conns {
		c.close()
	}
	g.wg.Wait()
	return err
}

func (g *Gateway) logf(msg string, args ...any) {
	if g.cfg.Logger != nil {
		g.cfg.Logger.Debug(msg, args...)
	}
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		nc, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			_ = nc.Close()
			return
		}
		if len(g.conns) >= g.cfg.MaxClients {
			g.mu.Unlock()
			g.stats.Rejected.Add(1)
			// Reject with an addressed error frame so the client can
			// distinguish "full" from a network failure.
			_ = nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			_ = WriteFrame(nc, Frame{Resp: &Response{Err: "gateway: client limit reached"}})
			_ = nc.Close()
			continue
		}
		c := &conn{
			gw:     g,
			nc:     nc,
			out:    make(chan []byte, g.queue),
			subs:   make(map[uint64]*serverSub),
			closec: make(chan struct{}),
		}
		g.conns[c] = struct{}{}
		g.mu.Unlock()
		g.stats.Clients.Add(1)
		g.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// onEvent is the engine reaction every client subscription compiles
// onto: sequence, retain, fan out. It must never block on a client —
// per-connection queues absorb or drop.
func (g *Gateway) onEvent(ev core.Event) {
	g.evMu.Lock()
	defer g.evMu.Unlock()
	g.gseq++
	entry := ringEntry{seq: g.gseq, typ: ev.Type.String(), tup: ev.Tuple}
	var stack [1024]byte // rendered here, then copied exactly sized
	buf := appendEventPeer(stack[:0], string(ev.Peer))
	if ev.Tuple != nil {
		// A tuple that cannot be rendered is matched on but not carried.
		if with, err := tuple.AppendTupleJSON(append(buf, tupleMember...), ev.Tuple); err == nil {
			buf = with
		}
	}
	entry.shared = append(make([]byte, 0, len(buf)), buf...)
	g.ring.append(entry)
	g.mu.Lock()
	conns := make([]*conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	if ev.Tuple == nil {
		return // nothing matches it
	}
	kind, id, content := ev.Tuple.Kind(), ev.Tuple.ID(), ev.Tuple.Content()
	for _, c := range conns {
		c.deliver(entry, kind, id, content)
	}
}

// seqNow reads the current gateway sequence.
func (g *Gateway) seqNow() uint64 {
	g.evMu.Lock()
	defer g.evMu.Unlock()
	return g.gseq
}

// serverSub is one client subscription on one connection.
type serverSub struct {
	id  uint64
	tpl tuple.Template
	// dseq is the per-subscription delivery sequence: every matched
	// event consumes one number whether it was queued or dropped, so a
	// client-observed dseq gap equals the number of matched events shed
	// to the bounded queue in between. Guarded by conn.mu.
	dseq  uint64
	drops atomic.Uint64 // cumulative events lost to the bounded queue
}

// conn is one client connection: a reader goroutine handling RPCs, a
// writer goroutine draining the bounded outbound queue, and the
// subscription set events fan into.
type conn struct {
	gw *Gateway
	nc net.Conn

	// out carries encoded frames to the writer. Responses are enqueued
	// blocking (backpressure stalls only this client's own RPCs);
	// events are enqueued non-blocking and dropped with accounting
	// when the client reads too slowly.
	out chan []byte

	mu      sync.Mutex
	subs    map[uint64]*serverSub
	nextSub uint64

	closeOnce sync.Once
	closec    chan struct{}
}

func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.closec)
		_ = c.nc.Close()
		c.gw.mu.Lock()
		_, tracked := c.gw.conns[c]
		delete(c.gw.conns, c)
		c.gw.mu.Unlock()
		if tracked {
			c.gw.stats.Clients.Add(-1)
			c.mu.Lock()
			n := len(c.subs)
			c.subs = map[uint64]*serverSub{}
			c.mu.Unlock()
			c.gw.stats.Subscriptions.Add(-int64(n))
		}
	})
}

func (c *conn) readLoop() {
	defer c.gw.wg.Done()
	defer c.close()
	br, scratch := bufio.NewReader(c.nc), make([]byte, 1024)
	for {
		body, err := readFrameBody(br, scratch)
		if err != nil {
			return
		}
		req, ok := decodeRequest(body)
		if !ok && json.Unmarshal(body, &req) != nil {
			return
		}
		resp, fatal := c.handle(req)
		if fatal {
			return
		}
		if resp == nil {
			continue // already enqueued (subscribe orders it before replay)
		}
		resp.Seq = req.Seq
		if !c.enqueueResponse(*resp) {
			return
		}
	}
}

// Write arms a fresh deadline for every write that reaches the socket:
// writeLoop's buffer makes one per flush.
func (c *conn) Write(p []byte) (int, error) {
	_ = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return c.nc.Write(p)
}

// writeLoop coalesces without ever delaying: what is queued goes into the
// buffer and the buffer goes out the moment the queue is empty, so a lone
// frame leaves at once and a burst shares a write. No timer, no threshold.
func (c *conn) writeLoop() {
	defer c.gw.wg.Done()
	defer c.close()
	w := bufio.NewWriterSize(c, eventBufBytes)
	for {
		select {
		case buf := <-c.out:
			for more := true; more; {
				if _, err := w.Write(buf); err != nil {
					return
				}
				select {
				case buf = <-c.out:
				default:
					more = false
				}
			}
			if err := w.Flush(); err != nil {
				return
			}
		case <-c.closec:
			return
		}
	}
}

// enqueueResponse queues one response frame, blocking (a client's own
// RPC traffic backpressures only itself). False means the connection
// closed.
func (c *conn) enqueueResponse(resp Response) bool {
	buf, err := EncodeFrame(Frame{Resp: &resp})
	if err != nil {
		c.gw.logf("gateway: encode response", "err", err)
		return false
	}
	select {
	case c.out <- buf:
		return true
	case <-c.closec:
		return false
	}
}

// handle dispatches one request. A nil response means the handler
// already enqueued its own; fatal means the connection must close.
func (c *conn) handle(req Request) (resp *Response, fatal bool) {
	switch req.Op {
	case OpPing:
		return &Response{OK: true, Epoch: c.gw.epoch, NextSeq: c.gw.seqNow()}, false
	case OpInject:
		r := c.handleInject(req)
		return &r, false
	case OpRead:
		r := c.handleRead(req)
		return &r, false
	case OpSubscribe:
		return c.handleSubscribe(req)
	case OpUnsubscribe:
		c.mu.Lock()
		_, ok := c.subs[req.Sub]
		delete(c.subs, req.Sub)
		c.mu.Unlock()
		if ok {
			c.gw.stats.Subscriptions.Add(-1)
		}
		return &Response{OK: true}, false
	default:
		return &Response{Err: fmt.Sprintf("gateway: unknown op %q", req.Op)}, false
	}
}

func (c *conn) handleInject(req Request) Response {
	if req.Kind == "" {
		return Response{Err: "gateway: inject without kind"}
	}
	if err := req.Content.Validate(); err != nil {
		return Response{Err: fmt.Sprintf("gateway: inject: %v", err)}
	}
	t, err := tuple.DefaultRegistry.New(req.Kind, tuple.ID{}, req.Content)
	if err != nil {
		return Response{Err: fmt.Sprintf("gateway: inject: %v", err)}
	}
	id, err := c.gw.node.Inject(t)
	if err != nil {
		return Response{Err: fmt.Sprintf("gateway: inject: %v", err)}
	}
	c.gw.stats.Injects.Add(1)
	return Response{OK: true, ID: id.String()}
}

func (c *conn) handleRead(req Request) Response {
	tpl, err := decodeTemplate(req.Template)
	if err != nil {
		return Response{Err: fmt.Sprintf("gateway: read: %v", err)}
	}
	var out []json.RawMessage
	for _, t := range c.gw.node.Read(tpl) {
		data, err := tuple.MarshalTupleJSON(t)
		if err != nil {
			continue
		}
		out = append(out, data)
	}
	c.gw.stats.Reads.Add(1)
	return Response{OK: true, Tuples: out}
}

// handleSubscribe installs the subscription and performs seq-based
// replay. Lock order matters for the no-gap guarantee: taking c.mu
// blocks live fan-out to this connection while the ring snapshot is
// queued, so a concurrent event is either in the snapshot or delivered
// live afterwards — possibly both (the client dedups by gseq), never
// neither. Everything queued under c.mu is queued NON-blocking: the
// evMu-holding fan-out path (onEvent → deliver) waits on c.mu, so
// blocking here on one wedged client would stall event dispatch for
// every client on the gateway and the engine goroutine behind it. A
// true second return closes the connection (its queue could not take
// even the ack — the client is not reading).
func (c *conn) handleSubscribe(req Request) (*Response, bool) {
	tpl, err := decodeTemplate(req.Template)
	if err != nil {
		return &Response{Err: fmt.Sprintf("gateway: subscribe: %v", err)}, false
	}
	// seqNow takes evMu; read it before c.mu to respect the evMu→c.mu
	// lock order the live fan-out path (onEvent→deliver) establishes.
	seqAt := c.gw.seqNow()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSub++
	sub := &serverSub{id: c.nextSub, tpl: tpl}
	c.subs[sub.id] = sub
	c.gw.stats.Subscriptions.Add(1)

	resp := Response{OK: true, Sub: sub.id, Epoch: c.gw.epoch, NextSeq: seqAt}
	wantReplay := req.FromSeq > 0 || req.Epoch != ""
	from := req.FromSeq
	sameEpoch := req.Epoch == "" || req.Epoch == c.gw.epoch
	if !sameEpoch {
		// The requested continuation is from a previous instance: its
		// sequence numbers mean nothing here. Replay this instance's
		// whole retained history so the client can rebuild.
		from = 0
	}
	entries, complete := c.gw.ring.since(from)
	if wantReplay {
		if sameEpoch && complete {
			resp.Replay = ReplayHit
			c.gw.stats.ReplayHits.Add(1)
		} else {
			resp.Replay = ReplayMiss
			c.gw.stats.ReplayMisses.Add(1)
		}
	}
	// The acknowledgement must precede the replayed events on the wire
	// (the client routes events by the sub id the ack carries), and both
	// must be queued under c.mu so live fan-out cannot interleave a gap.
	resp.Seq = req.Seq
	buf, err := EncodeFrame(Frame{Resp: &resp})
	if err != nil {
		c.gw.logf("gateway: encode response", "err", err)
		return nil, true
	}
	select {
	case c.out <- buf:
	default:
		// The outbound queue is already full before the ack could be
		// queued: this client stopped reading. Close it rather than
		// block under c.mu, which the fan-out path for every other
		// client needs.
		return nil, true
	}
	for _, e := range entries {
		if tpl.Matches(e.tup) && c.enqueueLocked(sub, e, true) {
			c.gw.stats.ReplayEvents.Add(1)
		}
	}
	return nil, false
}

// deliver fans one live event into every matching subscription queue;
// kind, id and content are its tuple's, fetched once per event. Neighbor
// events are synthesized tuples, so they match the same way (the paper's
// "any event … can be represented as a tuple").
func (c *conn) deliver(e ringEntry, kind string, id tuple.ID, content tuple.Content) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sub := range c.subs {
		if sub.tpl.MatchesParts(kind, id, content) {
			c.enqueueLocked(sub, e, false)
		}
	}
}

// enqueueLocked queues one frame for sub, whose template matched, dropping
// with accounting when the client's queue is full. Callers hold c.mu.
func (c *conn) enqueueLocked(sub *serverSub, e ringEntry, replay bool) bool {
	sub.dseq++
	ev := Event{Type: e.typ, Sub: sub.id, GSeq: e.seq, DSeq: sub.dseq, Drops: sub.drops.Load(), Replay: replay}
	buf, err := encodeEvent(&ev, e.shared)
	if err != nil {
		c.gw.logf("gateway: encode event", "err", err)
		return false
	}
	select {
	case c.out <- buf:
		c.gw.stats.EventsDelivered.Add(1)
		return true
	default:
		sub.drops.Add(1)
		c.gw.stats.EventsDropped.Add(1)
		return false
	}
}
