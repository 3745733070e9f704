// Package udp is a real network transport for TOTA nodes, replacing the
// paper's 802.11b multicast sockets with UDP datagrams so the middleware
// runs across actual processes.
//
// Neighbor discovery follows the paper's wired-scenario recipe: each
// node is configured with a list of candidate peer addresses (the
// "central repository of TOTA node addresses") and exchanges periodic
// HELLO beacons with them; a candidate becomes a neighbor when its
// beacons arrive and is dropped when it falls silent. Broadcast sends one
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
	// PeerTimeout is how long a neighbor may stay silent, sending
	// neither beacons nor data, before it is declared gone (default 6 ×
	// HelloInterval), so one or two delayed beacons never emit a
	// disconnect/connect event pair. The damping costs detection latency
	// on real crashes, which the engine's own suspicion hysteresis
	// already tolerates. Silence counts only while this node could
	// listen: no peer is declared gone while the read loop is handling a
	// frame, and after a stall longer than HelloInterval (a slow handler
	// call, or the beacon loop waking late) silence counts from the
	// stall's end, because the peer's frames wait unread in the socket.
	PeerTimeout time.Duration
	// Logger, when set, receives rate-limited structured logs for
	// socket write failures and undecodable frames (at occurrence
	// counts 1, 2, 4, 8, …).
	Logger *slog.Logger
}

// counters declares each socket counter once: its field, the metric it
// is exposed as (obs.RegisterStats reads the tags) and its help text.
// Stats instantiates it with int64 snapshots, the transport's live set
// with atomic.Int64. Sent counts data and hello datagrams alike.
type counters[C any] struct {
	Sent       C `metric:"tota_udp_datagrams_sent_total" help:"Datagrams written to the socket."`
	SendErrors C `metric:"tota_udp_send_errors_total" help:"Socket write failures."`
	Received   C `metric:"tota_udp_datagrams_received_total" help:"Datagrams read from the socket."`
	BadFrames  C `metric:"tota_udp_bad_frames_total" help:"Undecodable frames received."`
	Hellos     C `metric:"tota_udp_hellos_total" help:"Discovery beacons received."`
	// Shed has no metric tag and stays zero: the handler runs on the
	// read loop, so there is no inbound queue to shed from. It stays
	// until the load rig (bench) drops its udp.shed column, which reads
	// it (ROADMAP item 17).
	Shed C
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
	busy  atomic.Bool // the read loop is handling a frame; see expirePeers

	mu       sync.Mutex
	handler  transport.Handler
	peers    map[string]*peerState // keyed by remote address
	byID     map[tuple.NodeID]*peerState
	upAddrs  []*net.UDPAddr // see rebuildUpLocked
	stallEnd time.Time      // end of the last stall; silence counts from it
	started  bool
	closed   atomic.Bool // set once Close begins; write reads it unlocked
	stopHup  chan struct{}
	doneHup  chan struct{}
	doneRead chan struct{}
}

type peerState struct {
	addr     *net.UDPAddr
	id       tuple.NodeID // "" until first hello
	lastSeen time.Time
	up       bool
}

var _ transport.Sender = (*Transport)(nil)
var _ transport.FrameLimiter = (*Transport)(nil)

// ReleasesPayloads implements transport.PayloadReleaser: Broadcast and
// Send copy the payload into a pooled frame buffer before writing, so
// the transport holds none of the caller's bytes once the call returns.
func (t *Transport) ReleasesPayloads() bool { return true }

// FramePayloadLimit implements transport.FrameLimiter: DefaultMTU minus
// this transport's own frame header (type, sender id), so coalesced
// refresh frames never exceed one datagram. The floor of 1 holds even
// for a node id longer than the MTU.
func (t *Transport) FramePayloadLimit() int {
	limit := DefaultMTU - headerLen(t.cfg.NodeID)
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
		cfg.PeerTimeout = 6 * cfg.HelloInterval
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
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

// Start launches the beacon and receive loops. The handler runs on the
// receive loop.
func (t *Transport) Start() {
	t.mu.Lock()
	t.started = true
	t.mu.Unlock()
	go t.helloLoop()
	go t.readLoop()
}

// Close stops the loops, waits for them to exit, and only then closes
// the socket: a read deadline in the past wakes the read loop, so the
// handler running on it never sends on a closed socket. Sends from
// then on return transport.ErrClosed and write nothing. Safe before
// Start (only the socket is closed).
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.mu.Lock()
	started := t.started
	t.mu.Unlock()
	close(t.stopHup)
	if started {
		_ = t.conn.SetReadDeadline(time.Unix(1, 0))
		<-t.doneHup
		<-t.doneRead
	}
	return t.conn.Close()
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
// Once Close has begun it writes nothing and returns
// transport.ErrClosed, which is neither counted nor logged here: a
// stopping node's last sends are not faults.
func (t *Transport) write(frame []byte, to *net.UDPAddr) error {
	if t.closed.Load() {
		return transport.ErrClosed
	}
	t.stats.Sent.Add(1)
	_, err := t.conn.WriteToUDP(frame, to)
	if err != nil {
		if t.closed.Load() {
			return transport.ErrClosed
		}
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
	addrs := t.upAddrs
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

// rebuildUpLocked lists the up peers' addresses for Broadcast after a
// peer went up or down. The list is replaced, never written in place, so
// a broadcast writes to the list it read without holding mu.
func (t *Transport) rebuildUpLocked() {
	addrs := make([]*net.UDPAddr, 0, len(t.byID))
	for _, p := range t.byID {
		if p.up {
			addrs = append(addrs, p.addr)
		}
	}
	t.upAddrs = addrs
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

// frame prepends the frame header: type, sender id (a varint length
// and its bytes).
func (t *Transport) frame(typ byte, payload []byte) []byte {
	return t.frameTo(nil, typ, payload)
}

// frameTo builds a frame into dst (reusing its capacity when possible,
// preallocating the exact size otherwise).
func (t *Transport) frameTo(dst []byte, typ byte, payload []byte) []byte {
	id := string(t.cfg.NodeID)
	need := headerLen(t.cfg.NodeID) + len(payload)
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	} else {
		dst = dst[:0]
	}
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	return append(dst, payload...)
}

// headerLen is the length of a frame header naming id.
func headerLen(id tuple.NodeID) int { return 1 + tuple.UvarintSize(uint64(len(id))) + len(id) }

// parseFrame splits a datagram into its header fields and payload. The
// sender id's length is checked against the datagram in 64-bit space,
// and an empty id, which New refuses to any node, is a bad frame.
func parseFrame(data []byte) (typ byte, id tuple.NodeID, payload []byte, err error) {
	if len(data) < 2 {
		return 0, "", nil, errors.New("udp: short frame")
	}
	n, w := binary.Uvarint(data[1:])
	if w <= 0 || n > uint64(len(data)-1-w) {
		return 0, "", nil, errors.New("udp: truncated frame")
	}
	if n == 0 {
		return 0, "", nil, errors.New("udp: empty sender id")
	}
	body := data[1+w:]
	return data[0], tuple.NodeID(body[:n]), body[n:], nil
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
	return headerLen(id), true
}

func (t *Transport) helloLoop() {
	defer close(t.doneHup)
	ticker := time.NewTicker(t.cfg.HelloInterval)
	defer ticker.Stop()
	hello := t.frame(frameHello, nil)
	last := time.Now()
	for {
		select {
		case <-t.stopHup:
			return
		case <-ticker.C:
			now := time.Now()
			t.mu.Lock()
			if now.Sub(last) > 2*t.cfg.HelloInterval {
				t.stallEnd = now // this loop woke more than a beacon period late
			}
			last = now
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

// expirePeers declares down every up peer silent for longer than
// PeerTimeout. Any well-formed frame from the peer, beacon or data,
// restarts its silence (see handleHello). Silence counts only while this
// node could listen (see Config.PeerTimeout).
func (t *Transport) expirePeers() {
	if t.busy.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	var gone []tuple.NodeID
	for id, p := range t.byID {
		if p.up && now.Sub(p.lastSeen) > t.cfg.PeerTimeout && now.Sub(t.stallEnd) > t.cfg.PeerTimeout {
			p.up = false
			gone = append(gone, id)
		}
	}
	if len(gone) > 0 {
		t.rebuildUpLocked()
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
			return // Close set a read deadline in the past, or the socket failed
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
		start := time.Now()
		t.busy.Store(true)
		switch typ {
		case frameHello:
			t.stats.Hellos.Add(1)
			t.handleHello(id, raddr)
		case frameData:
			t.handleData(id, raddr, payload)
		}
		if end := time.Now(); end.Sub(start) > t.cfg.HelloInterval {
			t.mu.Lock()
			t.stallEnd = end
			t.mu.Unlock()
		}
		t.busy.Store(false)
	}
}

// handleHello takes a well-formed frame from id at raddr as liveness:
// it learns or refreshes the peer, brings it up, and returns the
// handler.
func (t *Transport) handleHello(id tuple.NodeID, raddr *net.UDPAddr) transport.Handler {
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
	old, haveOld := t.byID[id]
	if haveOld && old != p {
		delete(t.peers, old.addr.String())
		cycleDown = old.up
	}
	p.id = id
	p.lastSeen = time.Now()
	wasUp := p.up
	p.up = true
	t.byID[id] = p
	if !wasUp || old != p {
		t.rebuildUpLocked()
	}
	h := t.handler
	t.mu.Unlock()
	if h == nil {
		return nil
	}
	if cycleDown {
		h.HandleNeighbor(id, false)
	}
	if !wasUp || cycleDown {
		h.HandleNeighbor(id, true)
	}
	return h
}

func (t *Transport) handleData(id tuple.NodeID, raddr *net.UDPAddr, payload []byte) {
	// A well-formed data frame is liveness evidence as strong as a
	// beacon, so it takes the beacon's path: it keeps an up peer alive
	// while beacons are lost, re-adopts a restarted peer on its new
	// address, and promotes a peer that is down, so one-shot traffic
	// that outruns the sender's first returning beacon — the newcomer
	// catch-up fired the instant a restarted node's hello lands on a
	// survivor — is delivered, not dropped until the next anti-entropy
	// epoch heals it.
	h := t.handleHello(id, raddr)
	if h == nil {
		return
	}
	// Copy: the read buffer is reused.
	data := make([]byte, len(payload))
	copy(data, payload)
	h.HandlePacket(id, data)
}
