package udp

import (
	"strings"
	"testing"
	"time"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/tuple"
)

const (
	testHello   = 10 * time.Millisecond
	testTimeout = 80 * time.Millisecond
	deadline    = 5 * time.Second
)

// eventually polls cond until it holds or the deadline expires.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newUDPNode creates a transport + middleware node pair.
func newUDPNode(t *testing.T, id tuple.NodeID) (*Transport, *core.Node) {
	t.Helper()
	tr, err := New(Config{
		NodeID:        id,
		HelloInterval: testHello,
		PeerTimeout:   testTimeout,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	n := core.New(tr)
	tr.SetHandler(n)
	return tr, n
}

func connect(t *testing.T, a, b *Transport) {
	t.Helper()
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	if err := b.AddPeer(a.Addr()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
}

func TestNeighborDiscovery(t *testing.T) {
	ta, na := newUDPNode(t, "a")
	tb, nb := newUDPNode(t, "b")
	connect(t, ta, tb)
	ta.Start()
	tb.Start()

	eventually(t, "a sees b", func() bool {
		ns := na.Neighbors()
		return len(ns) == 1 && ns[0] == "b"
	})
	eventually(t, "b sees a", func() bool {
		ns := nb.Neighbors()
		return len(ns) == 1 && ns[0] == "a"
	})
}

func TestGradientOverUDPChain(t *testing.T) {
	// Chain a-b-c: only adjacent transports know each other, so the
	// gradient must travel two real hops.
	ta, na := newUDPNode(t, "a")
	tb, nb := newUDPNode(t, "b")
	tc, nc := newUDPNode(t, "c")
	connect(t, ta, tb)
	connect(t, tb, tc)
	ta.Start()
	tb.Start()
	tc.Start()

	eventually(t, "chain discovery", func() bool {
		return len(na.Neighbors()) == 1 && len(nb.Neighbors()) == 2 && len(nc.Neighbors()) == 1
	})

	if _, err := na.Inject(pattern.NewGradient("f")); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	valAt := func(n *core.Node) (float64, bool) {
		ts := n.Read(pattern.ByName(pattern.KindGradient, "f"))
		if len(ts) == 0 {
			return 0, false
		}
		return ts[0].(tuple.Maintained).Value(), true
	}
	eventually(t, "gradient reaches c with value 2", func() bool {
		v, ok := valAt(nc)
		return ok && v == 2
	})
	if v, _ := valAt(nb); v != 1 {
		t.Errorf("b value = %v, want 1", v)
	}
}

func TestPeerLossTriggersMaintenance(t *testing.T) {
	ta, na := newUDPNode(t, "a")
	tb, nb := newUDPNode(t, "b")
	connect(t, ta, tb)
	ta.Start()
	tb.Start()
	eventually(t, "discovery", func() bool { return len(na.Neighbors()) == 1 })

	if _, err := na.Inject(pattern.NewGradient("f")); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	eventually(t, "b has the gradient", func() bool {
		return len(nb.Read(pattern.ByName(pattern.KindGradient, "f"))) == 1
	})

	// Kill a: b must lose the neighbor and withdraw the unsupported
	// gradient copy.
	if err := ta.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eventually(t, "b drops a", func() bool { return len(nb.Neighbors()) == 0 })
	eventually(t, "b withdraws the orphan gradient", func() bool {
		return len(nb.Read(pattern.ByName(pattern.KindGradient, "f"))) == 0
	})
}

func TestDownhillMessageOverUDP(t *testing.T) {
	ta, na := newUDPNode(t, "a")
	tb, nb := newUDPNode(t, "b")
	tc, nc := newUDPNode(t, "c")
	connect(t, ta, tb)
	connect(t, tb, tc)
	ta.Start()
	tb.Start()
	tc.Start()
	eventually(t, "chain discovery", func() bool {
		return len(na.Neighbors()) == 1 && len(nb.Neighbors()) == 2 && len(nc.Neighbors()) == 1
	})

	if _, err := na.Inject(pattern.NewGradient("to-a")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "structure at c", func() bool {
		return len(nc.Read(pattern.ByName(pattern.KindGradient, "to-a"))) == 1
	})
	if _, err := nc.Inject(pattern.NewDownhill("to-a", tuple.S("m", "hi")).StrictSlope()); err != nil {
		t.Fatal(err)
	}
	eventually(t, "delivery at a", func() bool {
		ts := na.Read(tuple.Match(pattern.KindDownhill))
		return len(ts) == 1 && ts[0].Content().GetString("m") == "hi"
	})
	if len(nb.Read(tuple.Match(pattern.KindDownhill))) != 0 {
		t.Error("relay node stored the message")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	tr, _ := newUDPNode(t, "x")
	tr.Start()
	if err := tr.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty node id accepted")
	}
	if _, err := New(Config{NodeID: "x", Peers: []string{"not-an-addr:xyz"}}); err == nil {
		t.Error("bad peer address accepted")
	}
}

func TestSendToNonNeighborFails(t *testing.T) {
	tr, _ := newUDPNode(t, "solo")
	tr.Start()
	if err := tr.Send("ghost", []byte("x")); err == nil {
		t.Error("Send to unknown peer succeeded")
	}
}

func TestFramePayloadLimit(t *testing.T) {
	tr, err := New(Config{NodeID: "mtu-node", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tr.Close()
	want := DefaultMTU - (1 + 1 + len("mtu-node")) // type, varint id length, id
	if got := tr.FramePayloadLimit(); got != want {
		t.Errorf("FramePayloadLimit = %d, want %d", got, want)
	}

	// A node id longer than the MTU leaves no room for a payload: the
	// limit still floors at 1.
	long := tuple.NodeID(strings.Repeat("y", DefaultMTU))
	small, err := New(Config{NodeID: long, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer small.Close()
	if got := small.FramePayloadLimit(); got != 1 {
		t.Errorf("oversized node id FramePayloadLimit = %d, want 1 (floor)", got)
	}
}
