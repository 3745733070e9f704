package transport

import (
	"errors"
	"sync"
	"testing"

	"tota/internal/topology"
	"tota/internal/tuple"
)

// recorder is a Handler capturing everything it receives.
type recorder struct {
	mu       sync.Mutex
	packets  []string // "from:data"
	nbrs     []string // "+peer" / "-peer"
	reply    func(from tuple.NodeID, data []byte)
	onNbrFun func(peer tuple.NodeID, added bool)
}

func (r *recorder) HandlePacket(from tuple.NodeID, data []byte) {
	r.mu.Lock()
	r.packets = append(r.packets, string(from)+":"+string(data))
	reply := r.reply
	r.mu.Unlock()
	if reply != nil {
		reply(from, data)
	}
}

func (r *recorder) HandleNeighbor(peer tuple.NodeID, added bool) {
	r.mu.Lock()
	s := "-"
	if added {
		s = "+"
	}
	r.nbrs = append(r.nbrs, s+string(peer))
	fn := r.onNbrFun
	r.mu.Unlock()
	if fn != nil {
		fn(peer, added)
	}
}

func (r *recorder) packetCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.packets)
}

func newTriangle(t *testing.T, cfg SimConfig) (*Sim, map[tuple.NodeID]*SimEndpoint, map[tuple.NodeID]*recorder) {
	t.Helper()
	g := topology.New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("a", "c")
	s := NewSim(g, cfg)
	eps := make(map[tuple.NodeID]*SimEndpoint)
	recs := make(map[tuple.NodeID]*recorder)
	for _, id := range []tuple.NodeID{"a", "b", "c"} {
		rec := &recorder{}
		eps[id] = s.Attach(id, rec)
		recs[id] = rec
	}
	return s, eps, recs
}

func TestBroadcastReachesAllNeighborsNextStep(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{})
	if err := eps["a"].Broadcast([]byte("hi")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if recs["b"].packetCount() != 0 {
		t.Error("delivered before Step")
	}
	if n := s.Step(); n != 2 {
		t.Errorf("Step delivered %d, want 2", n)
	}
	for _, id := range []tuple.NodeID{"b", "c"} {
		rec := recs[id]
		if rec.packetCount() != 1 || rec.packets[0] != "a:hi" {
			t.Errorf("node %s got %v", id, rec.packets)
		}
	}
	if recs["a"].packetCount() != 0 {
		t.Error("sender received its own broadcast")
	}
}

func TestSendUnicastAndErrors(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{})
	if err := eps["a"].Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	if recs["b"].packetCount() != 1 {
		t.Error("unicast not delivered")
	}
	if recs["c"].packetCount() != 0 {
		t.Error("unicast leaked to third node")
	}
	if err := eps["a"].Send("zzz", nil); !errors.Is(err, ErrNotNeighbor) {
		t.Errorf("Send to non-neighbor: %v", err)
	}
	s.RemoveEdge("a", "b")
	if err := eps["a"].Send("b", nil); !errors.Is(err, ErrNotNeighbor) {
		t.Errorf("Send after unlink: %v", err)
	}
}

func TestDetachedEndpointErrors(t *testing.T) {
	s, eps, _ := newTriangle(t, SimConfig{})
	s.Detach("a")
	if err := eps["a"].Broadcast(nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Broadcast after Detach: %v", err)
	}
}

func TestNeighborNotifications(t *testing.T) {
	g := topology.New()
	s := NewSim(g, SimConfig{})
	ra, rb := &recorder{}, &recorder{}
	s.Attach("a", ra)
	s.Attach("b", rb)

	s.AddEdge("a", "b")
	if len(ra.nbrs) != 1 || ra.nbrs[0] != "+b" {
		t.Errorf("a events = %v", ra.nbrs)
	}
	if len(rb.nbrs) != 1 || rb.nbrs[0] != "+a" {
		t.Errorf("b events = %v", rb.nbrs)
	}
	s.RemoveEdge("a", "b")
	if len(ra.nbrs) != 2 || ra.nbrs[1] != "-b" {
		t.Errorf("a events = %v", ra.nbrs)
	}
	// Duplicate edits produce no events.
	s.RemoveEdge("a", "b")
	if len(ra.nbrs) != 2 {
		t.Errorf("duplicate removal notified: %v", ra.nbrs)
	}
}

func TestDetachNotifiesSurvivors(t *testing.T) {
	s, _, recs := newTriangle(t, SimConfig{})
	s.Detach("b")
	found := false
	for _, e := range recs["a"].nbrs {
		if e == "-b" {
			found = true
		}
	}
	if !found {
		t.Errorf("a not notified of b's crash: %v", recs["a"].nbrs)
	}
}

func TestPacketToCrashedNodeDropped(t *testing.T) {
	s, eps, _ := newTriangle(t, SimConfig{})
	if err := eps["a"].Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Detach("b")
	s.Step()
	if st := s.Stats(); st.Delivered != 0 {
		t.Errorf("delivered to crashed node: %+v", st)
	}
}

func TestPacketAcrossBrokenLinkDropped(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{})
	if err := eps["a"].Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.RemoveEdge("a", "b")
	s.Step()
	if recs["b"].packetCount() != 0 {
		t.Error("packet crossed a removed link")
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestLatencyRounds(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{})
	s.SetFaults(Faults{Delay: 3})
	if err := eps["a"].Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	s.Step()
	if recs["b"].packetCount() != 0 {
		t.Error("delivered before latency elapsed")
	}
	s.Step()
	if recs["b"].packetCount() != 1 {
		t.Error("not delivered after latency elapsed")
	}
}

func TestLossIsAppliedAndDeterministic(t *testing.T) {
	run := func() Stats {
		s, eps, _ := newTriangle(t, SimConfig{Seed: 42})
		s.SetFaults(Faults{Loss: 0.5})
		for i := 0; i < 200; i++ {
			if err := eps["a"].Send("b", []byte{byte(i)}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		s.RunUntilQuiet(10)
		return s.Stats()
	}
	st1 := run()
	st2 := run()
	if st1 != st2 {
		t.Errorf("same seed, different stats: %+v vs %+v", st1, st2)
	}
	if st1.Dropped == 0 || st1.Delivered == 0 {
		t.Errorf("loss 0.5 produced stats %+v", st1)
	}
	if st1.Dropped+st1.Delivered != 200 {
		t.Errorf("dropped+delivered = %d, want 200", st1.Dropped+st1.Delivered)
	}
}

func TestRunUntilQuietHandlesChains(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{})
	// b forwards everything it receives to c, once.
	forwarded := false
	recs["b"].reply = func(from tuple.NodeID, data []byte) {
		if !forwarded {
			forwarded = true
			if err := eps["b"].Send("c", data); err != nil {
				t.Errorf("forward: %v", err)
			}
		}
	}
	if err := eps["a"].Send("b", []byte("m")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	steps := s.RunUntilQuiet(100)
	if steps != 2 {
		t.Errorf("steps = %d, want 2", steps)
	}
	if recs["c"].packetCount() != 1 || recs["c"].packets[0] != "b:m" {
		t.Errorf("c got %v", recs["c"].packets)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d", s.Pending())
	}
}

func TestResetStats(t *testing.T) {
	s, eps, _ := newTriangle(t, SimConfig{})
	if err := eps["a"].Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunUntilQuiet(5)
	if s.Stats() == (Stats{}) {
		t.Fatal("stats empty after traffic")
	}
	s.ResetStats()
	if s.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}
