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

// TestFaultPeerFlapDamping: a single dropped (or delayed) beacon
// interval must not cycle disconnect/connect events — the peer becomes
// suspect silently and the next beacon clears the suspicion.
func TestFaultPeerFlapDamping(t *testing.T) {
	rec := &nbrRecorder{}
	tr := newIdleTransport(t, rec)
	p := seedPeer(tr, "peer")

	// Silence just past PeerTimeout: stage one (suspect), no event.
	tr.mu.Lock()
	p.lastSeen = time.Now().Add(-testTimeout - time.Millisecond)
	tr.mu.Unlock()
	tr.expirePeers()
	tr.expirePeers() // grace has not elapsed: still no event
	if evs := rec.snapshot(); len(evs) != 0 {
		t.Fatalf("suspicion emitted events: %v", evs)
	}
	tr.mu.Lock()
	if p.suspectAt.IsZero() {
		t.Error("peer not marked suspect after PeerTimeout silence")
	}
	tr.mu.Unlock()

	// The delayed beacon arrives: suspicion clears, still no events —
	// and crucially no down/up pair.
	tr.handleHello("peer", p.addr)
	tr.expirePeers()
	if evs := rec.snapshot(); len(evs) != 0 {
		t.Fatalf("beacon after suspicion emitted events: %v", evs)
	}
	tr.mu.Lock()
	if !p.suspectAt.IsZero() || !p.up {
		t.Error("beacon did not clear suspicion")
	}
	tr.mu.Unlock()

	if len(tr.Neighbors()) != 1 {
		t.Error("peer lost despite resumed beacons")
	}
}

// TestFaultPeerDownAfterGrace: sustained silence through the grace
// window does emit exactly one down event.
func TestFaultPeerDownAfterGrace(t *testing.T) {
	rec := &nbrRecorder{}
	tr := newIdleTransport(t, rec)
	p := seedPeer(tr, "peer")

	tr.mu.Lock()
	p.lastSeen = time.Now().Add(-testTimeout - time.Millisecond)
	tr.mu.Unlock()
	tr.expirePeers() // suspect
	tr.mu.Lock()
	p.suspectAt = time.Now().Add(-tr.peerGrace()) // grace elapsed
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
