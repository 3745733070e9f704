package udp

import (
	"net"
	"sync"
	"testing"
	"time"

	"tota/internal/tuple"
)

// nbrRecorder is a transport.Handler recording neighbor transitions.
type nbrRecorder struct {
	mu     sync.Mutex
	events []string // "+id" / "-id"
}

func (r *nbrRecorder) HandlePacket(tuple.NodeID, []byte) {}

func (r *nbrRecorder) HandleNeighbor(peer tuple.NodeID, added bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := "-"
	if added {
		s = "+"
	}
	r.events = append(r.events, s+string(peer))
}

func (r *nbrRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// newIdleTransport builds a transport without starting its loops, so
// tests can drive expirePeers and handleHello deterministically.
func newIdleTransport(t *testing.T, h *nbrRecorder) *Transport {
	t.Helper()
	tr, err := New(Config{
		NodeID:        "self",
		HelloInterval: testHello,
		PeerTimeout:   testTimeout,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	tr.SetHandler(h)
	return tr
}

// seedPeer installs an up peer as if discovery had completed.
func seedPeer(tr *Transport, id tuple.NodeID) *peerState {
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	p := &peerState{addr: addr, id: id, lastSeen: time.Now(), up: true}
	tr.mu.Lock()
	tr.peers[addr.String()] = p
	tr.byID[id] = p
	tr.mu.Unlock()
	return p
}

// TestFaultPeerFlapDamping: beacons dropped or delayed for less than
// PeerTimeout must not cycle disconnect/connect events, and the next
// beacon restarts the peer's silence.
func TestFaultPeerFlapDamping(t *testing.T) {
	rec := &nbrRecorder{}
	tr := newIdleTransport(t, rec)
	p := seedPeer(tr, "peer")

	// Silence just inside PeerTimeout: no event, however often the
	// detector runs.
	tr.mu.Lock()
	p.lastSeen = time.Now().Add(-testTimeout + 2*testHello)
	tr.mu.Unlock()
	tr.expirePeers()
	tr.expirePeers()
	if evs := rec.snapshot(); len(evs) != 0 {
		t.Fatalf("silence inside PeerTimeout emitted events: %v", evs)
	}

	// The delayed beacon arrives: the silence restarts, still no events
	// and crucially no down/up pair.
	tr.handleHello("peer", p.addr)
	tr.expirePeers()
	if evs := rec.snapshot(); len(evs) != 0 {
		t.Fatalf("beacon after silence emitted events: %v", evs)
	}
	tr.mu.Lock()
	if !p.up || time.Since(p.lastSeen) > testHello {
		t.Error("beacon did not restart the silence")
	}
	tr.mu.Unlock()

	if len(tr.Neighbors()) != 1 {
		t.Error("peer lost despite resumed beacons")
	}
}

// TestFaultPeerDownAfterGrace: silence past PeerTimeout, which holds
// the grace for delayed beacons, emits exactly one down event at the
// detector's next run.
func TestFaultPeerDownAfterGrace(t *testing.T) {
	rec := &nbrRecorder{}
	tr := newIdleTransport(t, rec)
	p := seedPeer(tr, "peer")

	tr.mu.Lock()
	p.lastSeen = time.Now().Add(-testTimeout - time.Millisecond)
	tr.mu.Unlock()
	tr.expirePeers()
	if evs := rec.snapshot(); len(evs) != 1 || evs[0] != "-peer" {
		t.Fatalf("events = %v, want exactly [-peer]", evs)
	}
	tr.expirePeers() // already down: no repeat
	if evs := rec.snapshot(); len(evs) != 1 {
		t.Fatalf("down event repeated: %v", evs)
	}
	if len(tr.Neighbors()) != 0 {
		t.Error("peer still listed after down")
	}
}

// TestDataFramesKeepPeerUp: a peer whose beacons are all lost but whose
// data frames keep arriving is alive, and must stay up. The peer here
// is a bare socket that sends one beacon and then only data frames, for
// several PeerTimeouts.
func TestDataFramesKeepPeerUp(t *testing.T) {
	rec := &nbrRecorder{}
	tr, err := New(Config{NodeID: "self", HelloInterval: testHello, PeerTimeout: testTimeout})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetHandler(rec)
	tr.Start()
	t.Cleanup(func() { _ = tr.Close() })
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	dst, err := net.ResolveUDPAddr("udp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ghost := &Transport{cfg: Config{NodeID: "ghost"}}
	if _, err := peer.WriteToUDP(ghost.frame(frameHello, nil), dst); err != nil {
		t.Fatal(err)
	}
	data := ghost.frame(frameData, []byte("payload"))
	tick := time.NewTicker(testHello)
	defer tick.Stop()
	for end := time.Now().Add(4 * testTimeout); time.Now().Before(end); {
		<-tick.C
		if _, err := peer.WriteToUDP(data, dst); err != nil {
			t.Fatal(err)
		}
	}
	if evs := rec.snapshot(); len(evs) != 1 || evs[0] != "+ghost" {
		t.Fatalf("events = %v, want only [+ghost]: data frames must keep the peer up", evs)
	}
}

// stallRecorder is an nbrRecorder whose first HandlePacket blocks the
// read loop for stall, as an engine waiting on its lock does.
type stallRecorder struct {
	nbrRecorder
	stall time.Duration
	once  sync.Once
}

func (r *stallRecorder) HandlePacket(tuple.NodeID, []byte) {
	r.once.Do(func() { time.Sleep(r.stall) })
}

// TestBusyReaderKeepsPeersUp: a peer beaconing every HelloInterval
// stays up while this node's handler holds the read loop for 4 ×
// PeerTimeout. Its beacons wait unread in the socket; silence the node
// could not hear is no evidence that the peer is gone.
func TestBusyReaderKeepsPeersUp(t *testing.T) {
	rec := &stallRecorder{stall: 4 * testTimeout}
	tr, err := New(Config{NodeID: "self", HelloInterval: testHello, PeerTimeout: testTimeout})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetHandler(rec)
	tr.Start()
	t.Cleanup(func() { _ = tr.Close() })
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	dst, err := net.ResolveUDPAddr("udp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ghost := &Transport{cfg: Config{NodeID: "ghost"}}
	hello := ghost.frame(frameHello, nil)
	for _, f := range [][]byte{hello, ghost.frame(frameData, []byte("stall"))} {
		if _, err := peer.WriteToUDP(f, dst); err != nil {
			t.Fatal(err)
		}
	}
	tick := time.NewTicker(testHello)
	defer tick.Stop()
	for end := time.Now().Add(rec.stall + 2*testTimeout); time.Now().Before(end); {
		<-tick.C
		if _, err := peer.WriteToUDP(hello, dst); err != nil {
			t.Fatal(err)
		}
	}
	if evs := rec.snapshot(); len(evs) != 1 || evs[0] != "+ghost" {
		t.Fatalf("events = %v, want only [+ghost]: a busy reader must not declare a beaconing peer down", evs)
	}
}
