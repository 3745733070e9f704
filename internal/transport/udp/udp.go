// Package udp is a real network transport for TOTA nodes, replacing the
// paper's 802.11b multicast sockets with UDP datagrams so the middleware
// runs across actual processes.
//
// Neighbor discovery follows the paper's wired-scenario recipe: each
// node is configured with a list of candidate peer addresses (the
// "central repository of TOTA node addresses") and exchanges periodic
// HELLO beacons with them; a candidate becomes a neighbor when its
// beacons arrive and is dropped when they stop. Broadcast sends one
// datagram per current neighbor — the loopback-testable equivalent of
// the one-hop radio multicast.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/transport"
	"tota/internal/tuple"
)

// Frame types on the socket.
const (
	frameHello byte = 1
	frameData  byte = 2
)

const maxDatagram = 64 * 1024

// DefaultMTU is the default datagram size budget: a conservative
// Ethernet-class MTU with room for IP/UDP headers, so frames survive
// typical links without fragmentation.
const DefaultMTU = 1400

// Config tunes a UDP transport.
type Config struct {
	// NodeID is the node's identity; it must be unique in the network.
	NodeID tuple.NodeID
	// ListenAddr is the UDP address to bind ("127.0.0.1:0" for an
	// ephemeral loopback port).
	ListenAddr string
	// Peers are the candidate neighbor addresses (the address
	// repository). More can be added at runtime with AddPeer.
	Peers []string
	// HelloInterval is the beacon period (default 50ms).
	HelloInterval time.Duration
	// PeerTimeout is how long to wait for beacons before suspecting a
	// neighbor (default 4 × HelloInterval).
	PeerTimeout time.Duration
	// PeerGrace is the suspicion window: a peer whose beacons stop is
	// first suspected (silently) at PeerTimeout and only declared gone
	// PeerGrace later, so a single delayed beacon re-ups it without
	// ever emitting a disconnect/connect event pair. The damping costs
	// detection latency on real crashes, which the engine's own
	// suspicion hysteresis already tolerates. Default 2 × HelloInterval.
	PeerGrace time.Duration
	// InboundQueue, when positive, bounds a staging queue between the
	// socket read loop and the middleware handler: a dispatcher
	// goroutine drains it, and when a burst overruns the bound the
	// OLDEST queued packet is shed (counted in Stats.Shed) — under
	// overload, fresher state wins and anti-entropy heals the gap.
	// Zero keeps the synchronous path (handler runs on the read loop).
	InboundQueue int
	// MTU is the largest datagram the link should carry, in bytes
	// (default DefaultMTU, capped at the 64KB UDP maximum). The
	// transport advertises MTU minus its own frame header as the
	// engine's batch-frame payload budget (transport.FrameLimiter), so
	// coalesced refresh frames never exceed one datagram.
	MTU int
	// Logger, when set, receives rate-limited structured logs for
	// socket write failures and undecodable frames (at occurrence
	// counts 1, 2, 4, 8, …).
	Logger *slog.Logger
}

// counters declares each socket counter once: its field, the metric it
// is exposed as (obs.RegisterStats reads the tags) and its help text.
// Stats instantiates it with int64 snapshots, the transport's live set
// with atomic.Int64. Sent counts data and hello datagrams alike; Shed
// stays zero when Config.InboundQueue is disabled.
type counters[C any] struct {
	Sent       C `metric:"tota_udp_datagrams_sent_total" help:"Datagrams written to the socket."`
	SendErrors C `metric:"tota_udp_send_errors_total" help:"Socket write failures."`
	Received   C `metric:"tota_udp_datagrams_received_total" help:"Datagrams read from the socket."`
	BadFrames  C `metric:"tota_udp_bad_frames_total" help:"Undecodable frames received."`
	Hellos     C `metric:"tota_udp_hellos_total" help:"Discovery beacons received."`
	Shed       C `metric:"tota_udp_shed_total" help:"Inbound packets shed by the bounded staging queue."`
}

// fields lists c's counters in declaration order (a test holds it to
// the struct).
func (c *counters[C]) fields() [6]*C {
	return [...]*C{&c.Sent, &c.SendErrors, &c.Received, &c.BadFrames, &c.Hellos, &c.Shed}
}

// Stats is a snapshot of a transport's socket-level counters, declared
// in counters.
type Stats counters[int64]

// Transport is a UDP-backed transport.Sender. Attach the middleware
// node with SetHandler, then Start.
type Transport struct {
	cfg  Config
	conn *net.UDPConn

	stats counters[atomic.Int64]

	mu       sync.Mutex
	handler  transport.Handler
	peers    map[string]*peerState // keyed by remote address
	byID     map[tuple.NodeID]*peerState
	started  bool
	closed   bool
	stopHup  chan struct{}
	doneHup  chan struct{}
	doneRead chan struct{}

	// inq is the bounded inbound staging queue (nil when
	// Config.InboundQueue is zero): the read loop stages packets here
	// and dispatchLoop drains them, decoupling socket reads from
	// handler latency. Overruns shed the oldest queued packet.
	inq      chan inPacket
	doneDisp chan struct{}
}

// inPacket is one staged inbound data packet.
type inPacket struct {
	from tuple.NodeID
	data []byte
}

type peerState struct {
	addr     *net.UDPAddr
	id       tuple.NodeID // "" until first hello
	lastSeen time.Time
	up       bool
	// suspectAt is when the peer's silence crossed PeerTimeout (zero =
	// not suspect). The down event fires only once the silence also
	// outlasts PeerGrace; any beacon in between clears it without
	// emitting neighbor events.
	suspectAt time.Time
}

var _ transport.Sender = (*Transport)(nil)
var _ transport.FrameLimiter = (*Transport)(nil)

// ReleasesPayloads implements transport.PayloadReleaser: Broadcast and
// Send copy the payload into a pooled frame buffer before writing, so
// the transport holds none of the caller's bytes once the call returns.
func (t *Transport) ReleasesPayloads() bool { return true }

// FramePayloadLimit implements transport.FrameLimiter: the configured
// MTU minus this transport's own frame header (type, sender id).
func (t *Transport) FramePayloadLimit() int {
	overhead := 1 + 4 + len(t.cfg.NodeID)
	limit := t.cfg.MTU - overhead
	if limit < 1 {
		return 1
	}
	return limit
}

// New binds the socket. Call SetHandler and then Start to begin
// exchanging beacons and packets.
func New(cfg Config) (*Transport, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("udp: empty node id")
	}
	if cfg.HelloInterval <= 0 {
		cfg.HelloInterval = 50 * time.Millisecond
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 4 * cfg.HelloInterval
	}
	if cfg.PeerGrace <= 0 {
		cfg.PeerGrace = 2 * cfg.HelloInterval
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.MTU <= 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.MTU > maxDatagram {
		cfg.MTU = maxDatagram
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve listen addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen: %w", err)
	}
	t := &Transport{
		cfg:      cfg,
		conn:     conn,
		peers:    make(map[string]*peerState),
		byID:     make(map[tuple.NodeID]*peerState),
		stopHup:  make(chan struct{}),
		doneHup:  make(chan struct{}),
		doneRead: make(chan struct{}),
		doneDisp: make(chan struct{}),
	}
	if cfg.InboundQueue > 0 {
		t.inq = make(chan inPacket, cfg.InboundQueue)
	}
	for _, p := range cfg.Peers {
		if err := t.AddPeer(p); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	return t, nil
}

// Addr returns the bound local address ("127.0.0.1:port"), which other
// nodes list as a peer.
func (t *Transport) Addr() string { return t.conn.LocalAddr().String() }

// SetHandler attaches the packet/neighbor consumer (the middleware
// node). It must be called before Start.
func (t *Transport) SetHandler(h transport.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// AddPeer registers another candidate neighbor address.
func (t *Transport) AddPeer(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udp: resolve peer %q: %w", addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.peers[ua.String()]; !ok {
		t.peers[ua.String()] = &peerState{addr: ua}
	}
	return nil
}

// Start launches the beacon and receive loops (and the inbound
// dispatcher when the staging queue is enabled).
func (t *Transport) Start() {
	t.mu.Lock()
	t.started = true
	t.mu.Unlock()
	go t.helloLoop()
	go t.readLoop()
	if t.inq != nil {
		go t.dispatchLoop()
	}
}

// Close stops the loops and closes the socket, waiting for the
// goroutines to exit. Safe before Start (only the socket is closed).
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	started := t.started
	t.mu.Unlock()
	close(t.stopHup)
	err := t.conn.Close()
	if started {
		<-t.doneHup
		<-t.doneRead
		if t.inq != nil {
			// The read loop has exited, so nothing sends on inq anymore:
			// closing it drains the dispatcher cleanly.
			close(t.inq)
			<-t.doneDisp
		}
	}
	return err
}

// Self implements transport.Sender.
func (t *Transport) Self() tuple.NodeID { return t.cfg.NodeID }

// Neighbors implements transport.Sender.
func (t *Transport) Neighbors() []tuple.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []tuple.NodeID
	for id, p := range t.byID {
		if p.up {
			out = append(out, id)
		}
	}
	return out
}

// Stats returns a snapshot of the socket-level counters. Lock-free:
// the counters are atomics, safe to read from a telemetry scrape at
// any time.
func (t *Transport) Stats() Stats {
	var s Stats
	out := (*counters[int64])(&s).fields()
	for i, c := range t.stats.fields() {
		*out[i] = c.Load()
	}
	return s
}

// write sends one datagram, counting it and any failure (with a
// rate-limited log line: failures are expected while peers restart, so
// they must not flood the log or fail the caller's whole broadcast).
func (t *Transport) write(frame []byte, to *net.UDPAddr) error {
	t.stats.Sent.Add(1)
	_, err := t.conn.WriteToUDP(frame, to)
	if err != nil {
		c := t.stats.SendErrors.Add(1)
		if t.cfg.Logger != nil && c&(c-1) == 0 {
			t.cfg.Logger.Warn("udp: send failed",
				"node", string(t.cfg.NodeID), "to", to.String(), "err", err, "count", c)
		}
	}
	return err
}

// framePool recycles frame build buffers across Broadcast/Send calls:
// WriteToUDP copies the datagram into the kernel synchronously, so the
// buffer can be returned immediately. Buffers grow to the largest
// message seen and stay that size, so steady-state sends allocate
// nothing.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// Broadcast implements transport.Sender.
func (t *Transport) Broadcast(data []byte) error {
	bufp := framePool.Get().(*[]byte)
	frame := t.frameTo(*bufp, frameData, data)
	t.mu.Lock()
	var addrs []*net.UDPAddr
	for _, p := range t.byID {
		if p.up {
			addrs = append(addrs, p.addr)
		}
	}
	t.mu.Unlock()
	var firstErr error
	for _, a := range addrs {
		if err := t.write(frame, a); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	*bufp = frame
	framePool.Put(bufp)
	return firstErr
}

// Send implements transport.Sender.
func (t *Transport) Send(to tuple.NodeID, data []byte) error {
	t.mu.Lock()
	p, ok := t.byID[to]
	up := ok && p.up
	t.mu.Unlock()
	if !up {
		return fmt.Errorf("udp: %s is not a neighbor", to)
	}
	bufp := framePool.Get().(*[]byte)
	frame := t.frameTo(*bufp, frameData, data)
	err := t.write(frame, p.addr)
	*bufp = frame
	framePool.Put(bufp)
	return err
}

// frame prepends the frame header: type, sender id.
func (t *Transport) frame(typ byte, payload []byte) []byte {
	return t.frameTo(nil, typ, payload)
}

// frameTo builds a frame into dst (reusing its capacity when possible,
// preallocating the exact size otherwise).
func (t *Transport) frameTo(dst []byte, typ byte, payload []byte) []byte {
	id := string(t.cfg.NodeID)
	need := 1 + 4 + len(id) + len(payload)
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	} else {
		dst = dst[:0]
	}
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(id)))
	dst = append(dst, id...)
	return append(dst, payload...)
}

func parseFrame(data []byte) (typ byte, id tuple.NodeID, payload []byte, err error) {
	if len(data) < 5 {
		return 0, "", nil, errors.New("udp: short frame")
	}
	typ = data[0]
	n := int(binary.BigEndian.Uint32(data[1:5]))
	if n < 0 || len(data) < 5+n {
		return 0, "", nil, errors.New("udp: truncated frame")
	}
	return typ, tuple.NodeID(data[5 : 5+n]), data[5+n:], nil
}

// FrameSender returns the sender node id carried in a datagram's frame
// header, without touching the payload. It is the attribution hook a
// testnet relay uses to classify a forwarded datagram's direction —
// the source socket address cannot be trusted for that, because
// restarted processes rebind on new ports.
func FrameSender(frame []byte) (tuple.NodeID, bool) {
	_, id, _, err := parseFrame(frame)
	if err != nil {
		return "", false
	}
	return id, true
}

// FrameHeaderLen returns the frame-header length for a datagram (type
// byte, id length, id bytes): the prefix a relay must leave intact when
// corrupting payload bytes, so attribution survives the fault.
func FrameHeaderLen(frame []byte) (int, bool) {
	_, id, _, err := parseFrame(frame)
	if err != nil {
		return 0, false
	}
	return 5 + len(id), true
}

func (t *Transport) helloLoop() {
	defer close(t.doneHup)
	ticker := time.NewTicker(t.cfg.HelloInterval)
	defer ticker.Stop()
	hello := t.frame(frameHello, nil)
	for {
		select {
		case <-t.stopHup:
			return
		case <-ticker.C:
			t.mu.Lock()
			var addrs []*net.UDPAddr
			for _, p := range t.peers {
				addrs = append(addrs, p.addr)
			}
			t.mu.Unlock()
			for _, a := range addrs {
				_ = t.write(hello, a)
			}
			t.expirePeers()
		}
	}
}

// expirePeers runs the two-stage silence detector: a peer quiet past
// PeerTimeout becomes suspect (no event), and only a peer additionally
// quiet through the PeerGrace window is declared down. A beacon at any
// point clears the suspicion silently, so one delayed or dropped
// beacon interval never cycles disconnect/connect events through the
// engine (which would trigger withdraw/catch-up storms).
func (t *Transport) expirePeers() {
	now := time.Now()
	t.mu.Lock()
	var gone []tuple.NodeID
	for id, p := range t.byID {
		if !p.up {
			continue
		}
		if now.Sub(p.lastSeen) <= t.cfg.PeerTimeout {
			p.suspectAt = time.Time{}
			continue
		}
		if p.suspectAt.IsZero() {
			p.suspectAt = now
			continue
		}
		if now.Sub(p.suspectAt) >= t.cfg.PeerGrace {
			p.up = false
			p.suspectAt = time.Time{}
			gone = append(gone, id)
		}
	}
	h := t.handler
	t.mu.Unlock()
	if h != nil {
		for _, id := range gone {
			h.HandleNeighbor(id, false)
		}
	}
}

func (t *Transport) readLoop() {
	defer close(t.doneRead)
	buf := make([]byte, maxDatagram)
	for {
		n, raddr, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		t.stats.Received.Add(1)
		typ, id, payload, perr := parseFrame(buf[:n])
		if perr != nil {
			c := t.stats.BadFrames.Add(1)
			if t.cfg.Logger != nil && c&(c-1) == 0 {
				t.cfg.Logger.Warn("udp: undecodable frame dropped",
					"node", string(t.cfg.NodeID), "from", raddr.String(), "err", perr, "count", c)
			}
			continue
		}
		if id == t.cfg.NodeID {
			continue
		}
		switch typ {
		case frameHello:
			t.stats.Hellos.Add(1)
			t.handleHello(id, raddr)
		case frameData:
			t.handleData(id, raddr, payload)
		}
	}
}

func (t *Transport) handleHello(id tuple.NodeID, raddr *net.UDPAddr) {
	key := raddr.String()
	t.mu.Lock()
	p, ok := t.peers[key]
	if !ok {
		// Unsolicited hello: learn the peer (symmetric discovery).
		p = &peerState{addr: raddr}
		t.peers[key] = p
	}
	// Restart re-adoption: the same node id arriving from a different
	// address means the peer process restarted (or rebound) on a new
	// port. Retire the stale address entry so beacons stop chasing a
	// dead socket, and if the engine still believes the neighbor is up,
	// cycle it down before the fresh up event — the restarted process
	// is empty, and only a new neighbor-added event re-runs newcomer
	// catch-up against it.
	var cycleDown bool
	if old, haveOld := t.byID[id]; haveOld && old != p {
		delete(t.peers, old.addr.String())
		cycleDown = old.up
	}
	p.id = id
	p.lastSeen = time.Now()
	p.suspectAt = time.Time{}
	wasUp := p.up
	p.up = true
	t.byID[id] = p
	h := t.handler
	t.mu.Unlock()
	if h == nil {
		return
	}
	if cycleDown {
		h.HandleNeighbor(id, false)
	}
	if !wasUp || cycleDown {
		h.HandleNeighbor(id, true)
	}
}

func (t *Transport) handleData(id tuple.NodeID, raddr *net.UDPAddr, payload []byte) {
	t.mu.Lock()
	p, ok := t.byID[id]
	up := ok && p.up
	h := t.handler
	t.mu.Unlock()
	if !up {
		// A well-formed data frame is liveness evidence as strong as a
		// beacon. Without this promotion, one-shot traffic that outruns
		// the sender's first returning beacon — the newcomer catch-up
		// unicast fired the instant a restarted node's hello lands on a
		// survivor — is dropped deterministically, and only the next
		// anti-entropy epoch would heal it.
		t.handleHello(id, raddr)
		t.mu.Lock()
		p, ok = t.byID[id]
		up = ok && p.up
		h = t.handler
		t.mu.Unlock()
	}
	if !up || h == nil {
		return
	}
	// Copy: the read buffer is reused.
	data := make([]byte, len(payload))
	copy(data, payload)
	if t.inq == nil {
		h.HandlePacket(id, data)
		return
	}
	t.stageInbound(inPacket{from: id, data: data})
}

// stageInbound queues one packet for the dispatcher, applying the
// shed-oldest overload policy when the queue is full: the head of the
// queue (the stalest packet) is discarded to make room. TOTA traffic is
// idempotent announcements plus anti-entropy, so dropping stale state
// under overload is strictly better than dropping fresh state — and
// far better than blocking the socket read loop.
func (t *Transport) stageInbound(pkt inPacket) {
	for {
		select {
		case t.inq <- pkt:
			return
		default:
		}
		select {
		case <-t.inq: // shed the oldest staged packet
			t.stats.Shed.Add(1)
		default:
		}
	}
}

// dispatchLoop drains the inbound staging queue into the handler.
func (t *Transport) dispatchLoop() {
	defer close(t.doneDisp)
	for pkt := range t.inq {
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h != nil {
			h.HandlePacket(pkt.from, pkt.data)
		}
	}
}
