package testnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"tota/internal/transport"
	"tota/internal/tuple"
)

// rawFrame builds a minimal TOTA wire frame (type, id length, id,
// payload) without importing the transport internals.
func rawFrame(typ byte, id string, payload []byte) []byte {
	f := binary.AppendUvarint([]byte{typ}, uint64(len(id)))
	f = append(f, id...)
	return append(f, payload...)
}

// endpoint is a bare UDP socket standing in for a node process.
type endpoint struct {
	conn *net.UDPConn
}

func newEndpoint(t *testing.T) *endpoint {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &endpoint{conn: conn}
}

func (e *endpoint) send(t *testing.T, linkAddr string, frame []byte) {
	t.Helper()
	dst, err := net.ResolveUDPAddr("udp", linkAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.conn.WriteToUDP(frame, dst); err != nil {
		t.Fatal(err)
	}
}

// recv reads one datagram with a short deadline; ok is false on
// timeout.
func (e *endpoint) recv(t *testing.T, d time.Duration) ([]byte, bool) {
	t.Helper()
	_ = e.conn.SetReadDeadline(time.Now().Add(d))
	buf := make([]byte, 65536)
	n, _, err := e.conn.ReadFromUDP(buf)
	if err != nil {
		return nil, false
	}
	return buf[:n], true
}

func TestTestnetRelayForwardsByFrameSender(t *testing.T) {
	r := NewRelay(1)
	defer r.Close()
	addr, err := r.AddLink("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := newEndpoint(t), newEndpoint(t)

	// Until b has spoken, frames toward it are unroutable and dropped.
	ea.send(t, addr, rawFrame(1, "a", nil))
	if _, ok := eb.recv(t, 100*time.Millisecond); ok {
		t.Fatal("relay forwarded before learning b's address")
	}
	// b speaks: the relay learns its address from the frame sender ID
	// and can now route both directions.
	eb.send(t, addr, rawFrame(1, "b", nil))
	if got, ok := ea.recv(t, time.Second); !ok || !bytes.Equal(got, rawFrame(1, "b", nil)) {
		t.Fatalf("a got %q ok=%v, want b's hello", got, ok)
	}
	payload := []byte("tuple-bytes")
	ea.send(t, addr, rawFrame(2, "a", payload))
	if got, ok := eb.recv(t, time.Second); !ok || !bytes.Equal(got, rawFrame(2, "a", payload)) {
		t.Fatalf("b got %q ok=%v, want a's data frame", got, ok)
	}

	// Restart shape: b rebinds a NEW socket and speaks; the relay must
	// re-learn and route to the new address.
	eb2 := newEndpoint(t)
	eb2.send(t, addr, rawFrame(1, "b", nil))
	if _, ok := ea.recv(t, time.Second); !ok {
		t.Fatal("a missed hello from restarted b")
	}
	ea.send(t, addr, rawFrame(2, "a", payload))
	if _, ok := eb2.recv(t, time.Second); !ok {
		t.Fatal("relay kept routing to b's dead socket after restart")
	}

	// Garbage and foreign IDs never cross.
	ea.send(t, addr, []byte{9, 9, 9})
	ea.send(t, addr, rawFrame(1, "stranger", nil))
	if _, ok := eb2.recv(t, 100*time.Millisecond); ok {
		t.Fatal("unattributable traffic was forwarded")
	}
}

func TestTestnetRelayFaults(t *testing.T) {
	r := NewRelay(2)
	defer r.Close()
	addr, err := r.AddLink("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := newEndpoint(t), newEndpoint(t)
	eb.send(t, addr, rawFrame(1, "b", nil))
	_, _ = ea.recv(t, time.Second)

	// Total loss: nothing crosses.
	r.Apply(transport.Faults{Loss: 1}, 0)
	for i := 0; i < 5; i++ {
		ea.send(t, addr, rawFrame(2, "a", []byte("x")))
	}
	if _, ok := eb.recv(t, 150*time.Millisecond); ok {
		t.Fatal("frame crossed a loss=1 link")
	}
	if s := r.Stats(); s.Dropped < 5 {
		t.Fatalf("dropped = %d, want >= 5", s.Dropped)
	}

	// Directional loss: a->b blocked, b->a clean.
	r.Apply(transport.Faults{LinkLoss: map[transport.Link]float64{{From: "a", To: "b"}: 1}}, 0)
	ea.send(t, addr, rawFrame(2, "a", []byte("x")))
	if _, ok := eb.recv(t, 150*time.Millisecond); ok {
		t.Fatal("frame crossed a blocked direction")
	}
	eb.send(t, addr, rawFrame(2, "b", []byte("y")))
	if _, ok := ea.recv(t, time.Second); !ok {
		t.Fatal("clean direction was blocked too")
	}

	// Partition: both directions silently cut.
	r.Apply(transport.Faults{Cut: map[tuple.NodeID]bool{"a": true}}, 0)
	ea.send(t, addr, rawFrame(2, "a", []byte("x")))
	eb.send(t, addr, rawFrame(2, "b", []byte("y")))
	if _, ok := eb.recv(t, 150*time.Millisecond); ok {
		t.Fatal("partition leaked a->b")
	}
	if _, ok := ea.recv(t, 150*time.Millisecond); ok {
		t.Fatal("partition leaked b->a")
	}

	// Heal: recomputed empty state restores the link.
	r.Apply(transport.Faults{}, 0)
	ea.send(t, addr, rawFrame(2, "a", []byte("healed")))
	if _, ok := eb.recv(t, time.Second); !ok {
		t.Fatal("link did not heal")
	}

	// Corruption mangles payload bytes but never the header, so the
	// receiver can still attribute the frame (and its CRC rejects it).
	r.Apply(transport.Faults{Corrupt: 1}, 0)
	orig := rawFrame(2, "a", []byte("0123456789abcdef"))
	ea.send(t, addr, orig)
	got, ok := eb.recv(t, time.Second)
	if !ok {
		t.Fatal("corrupted frame was dropped, want forwarded")
	}
	hdr := rawFrame(2, "a", nil)
	if !bytes.Equal(got[:len(hdr)], hdr) {
		t.Fatalf("corruption damaged the frame header: %q", got[:len(hdr)])
	}
	if bytes.Equal(got, orig) {
		t.Fatal("corrupt=1 forwarded the frame unchanged")
	}

	// Duplication: one send, two arrivals.
	r.Apply(transport.Faults{Dup: 1}, 0)
	ea.send(t, addr, rawFrame(2, "a", []byte("twice")))
	if _, ok := eb.recv(t, time.Second); !ok {
		t.Fatal("dup frame lost entirely")
	}
	if _, ok := eb.recv(t, time.Second); !ok {
		t.Fatal("duplicate copy never arrived")
	}

	// Delay: the frame arrives, but not before the configured latency.
	r.Apply(transport.Faults{Delay: 3}, 100*time.Millisecond)
	start := time.Now()
	ea.send(t, addr, rawFrame(2, "a", []byte("late")))
	if _, ok := eb.recv(t, 2*time.Second); !ok {
		t.Fatal("delayed frame never arrived")
	}
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Fatalf("delayed frame arrived after %v, want >= 250ms", el)
	}

	// A cut that opens while a delayed frame is in flight stops it: the
	// relay checks the cut when the frame falls due, as Sim does.
	dropped := r.Stats().Dropped
	ea.send(t, addr, rawFrame(2, "a", []byte("cut in flight")))
	// Let the relay read it before the cut opens. Should it read it
	// later, the cut drops it just the same; only the case is weaker.
	time.Sleep(50 * time.Millisecond)
	r.Apply(transport.Faults{Delay: 3, Cut: map[tuple.NodeID]bool{"a": true}}, 100*time.Millisecond)
	if got, ok := eb.recv(t, 600*time.Millisecond); ok {
		t.Fatalf("frame %q crossed a cut that opened while it was in flight", got)
	}
	if s := r.Stats(); s.Dropped != dropped+1 {
		t.Fatalf("dropped = %d, want %d", s.Dropped, dropped+1)
	}
}
