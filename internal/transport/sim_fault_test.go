package transport

import (
	"math/rand"
	"testing"

	"tota/internal/tuple"
)

func TestFaultLinkLossIsAsymmetric(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{Seed: 1})
	s.SetFaults(Faults{LinkLoss: map[Link]float64{{From: "a", To: "b"}: 1}}) // a->b always lost; b->a untouched
	for i := 0; i < 10; i++ {
		if err := eps["a"].Send("b", []byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if err := eps["b"].Send("a", []byte("y")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		s.Step()
	}
	if got := recs["b"].packetCount(); got != 0 {
		t.Errorf("a->b delivered %d packets through a fully lossy direction", got)
	}
	if got := recs["a"].packetCount(); got != 10 {
		t.Errorf("b->a delivered %d packets, want 10 (reverse direction must be clean)", got)
	}
	s.SetFaults(Faults{}) // clear the override
	if err := eps["a"].Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	if got := recs["b"].packetCount(); got != 1 {
		t.Errorf("cleared override still dropping: b got %d packets", got)
	}
}

func TestFaultLinkDelayAndJitterBounds(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{Seed: 7})
	s.SetFaults(Faults{LinkDelay: map[Link]LinkDelay{{From: "a", To: "b"}: {Rounds: 3, Jitter: 2}}}) // due in 3..5 rounds
	for i := 0; i < 20; i++ {
		if err := eps["a"].Send("b", []byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	for round := 1; round <= 5; round++ {
		s.Step()
		got := recs["b"].packetCount()
		if round < 3 && got != 0 {
			t.Fatalf("round %d: %d packets before the base delay elapsed", round, got)
		}
	}
	if got := recs["b"].packetCount(); got != 20 {
		t.Errorf("after max jitter window: %d packets, want 20", got)
	}
}

func TestFaultPartitionBlocksSilently(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{})
	s.SetFaults(Faults{Cut: map[tuple.NodeID]bool{"a": true}})
	if err := eps["a"].Broadcast([]byte("hi")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if err := eps["b"].Send("c", []byte("bc")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	if got := recs["b"].packetCount() + recs["a"].packetCount(); got != 0 {
		t.Errorf("partition leaked: a/b saw %d packets, want 0", got)
	}
	if recs["c"].packetCount() != 1 {
		t.Errorf("intra-side traffic blocked: c got %d packets, want 1 (b->c)", recs["c"].packetCount())
	}
	if st := s.Stats(); st.Blocked != 2 {
		t.Errorf("Blocked = %d, want 2 (a's broadcast copies to b and c)", st.Blocked)
	}
	// No neighbor events fire at a cut: engines must detect the silence.
	for id, rec := range recs {
		rec.mu.Lock()
		n := len(rec.nbrs)
		rec.mu.Unlock()
		if n != 0 {
			t.Errorf("node %s saw %d neighbor events, want 0 (cuts are silent)", id, n)
		}
	}
	// Heal: traffic flows again.
	s.SetFaults(Faults{})
	if err := eps["a"].Send("b", []byte("again")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	if recs["b"].packetCount() != 1 {
		t.Error("healed partition still blocking")
	}
}

func TestFaultPauseHoldsPacketsUntilResume(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{})
	s.SetFaults(Faults{Paused: map[tuple.NodeID]bool{"b": true}})
	if !s.Faults().Paused["b"] {
		t.Fatal("b not paused after SetFaults")
	}
	if err := eps["a"].Send("b", []byte("held")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if got := recs["b"].packetCount(); got != 0 {
		t.Fatalf("paused node processed %d packets", got)
	}
	if s.Pending() == 0 {
		t.Fatal("held packet was dropped instead of kept in flight")
	}
	s.SetFaults(Faults{})
	s.Step()
	if got := recs["b"].packetCount(); got != 1 {
		t.Errorf("after resume: %d packets, want 1", got)
	}
}

func TestFaultCorruptCopiesBeforeFlipping(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{Seed: 3})
	s.SetFaults(Faults{Corrupt: 1})
	orig := []byte("pristine-payload")
	want := string(append([]byte(nil), orig...))
	if err := eps["a"].Send("b", orig); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	if string(orig) != want {
		t.Errorf("sender payload mutated in place: %q", orig)
	}
	if got := recs["b"].packetCount(); got != 1 {
		t.Fatalf("corrupted packet not delivered: %d", got)
	}
	if recs["b"].packets[0] == "a:"+want {
		t.Error("delivered payload identical to original despite corrupt=1")
	}
	if st := s.Stats(); st.Corrupted != 1 {
		t.Errorf("Corrupted = %d, want 1", st.Corrupted)
	}
}

func TestFaultCorruptBytesChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 100; i++ {
		out := CorruptBytes(rng, data, 0)
		if len(out) != len(data) {
			t.Fatalf("length changed: %d != %d", len(out), len(data))
		}
		same := true
		for j := range out {
			if out[j] != data[j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("iteration %d: no byte changed", i)
		}
	}
	if out := CorruptBytes(rng, nil, 0); len(out) != 0 {
		t.Errorf("nil input produced %d bytes", len(out))
	}
}

func TestFaultShedOldestBoundsInbound(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{MaxInbound: 3})
	s.SetFaults(Faults{Delay: 2})
	for i := 0; i < 8; i++ {
		if err := eps["a"].Send("b", []byte{byte('0' + i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	s.Step()
	s.Step()
	if got := recs["b"].packetCount(); got != 3 {
		t.Fatalf("delivered %d packets, want 3 (bound)", got)
	}
	// Shed-oldest: the LAST three sends survive.
	for i, want := range []string{"a:5", "a:6", "a:7"} {
		if recs["b"].packets[i] != want {
			t.Errorf("packet %d = %q, want %q (oldest must be shed first)", i, recs["b"].packets[i], want)
		}
	}
	if st := s.Stats(); st.Shed != 5 {
		t.Errorf("Shed = %d, want 5", st.Shed)
	}
}

func TestFaultSetDupAndSetDelay(t *testing.T) {
	s, eps, recs := newTriangle(t, SimConfig{Seed: 2})
	s.SetFaults(Faults{Dup: 1})
	if err := eps["a"].Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	if got := recs["b"].packetCount(); got != 2 {
		t.Errorf("dup=1 delivered %d copies, want 2", got)
	}
	s.SetFaults(Faults{Delay: 3})
	if err := eps["a"].Send("b", []byte("slow")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Step()
	s.Step()
	if got := recs["b"].packetCount(); got != 2 {
		t.Fatalf("delayed packet arrived early (count %d)", got)
	}
	s.Step()
	if got := recs["b"].packetCount(); got != 3 {
		t.Errorf("delayed packet missing after 3 rounds (count %d)", got)
	}
}
