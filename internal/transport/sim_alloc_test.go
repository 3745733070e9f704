package transport

import (
	"testing"

	"tota/internal/topology"
	"tota/internal/tuple"
)

// rebroadcaster re-broadcasts a fixed payload once in every round in
// which it hears anything, so a wave started at one node keeps the
// radio busy forever at a constant load.
type rebroadcaster struct {
	ep   *SimEndpoint
	last int64
}

var roundPayload = []byte("round")

func (r *rebroadcaster) HandlePacket(tuple.NodeID, []byte) {
	if round := r.ep.net.Rounds(); round != r.last {
		r.last = round
		_ = r.ep.Broadcast(roundPayload)
	}
}

func (r *rebroadcaster) HandleNeighbor(tuple.NodeID, bool) {}

// TestSimRoundAllocs holds a steady-state round at zero allocations:
// the due list, the recipient list and the broadcast
// neighbour list are all buffers the Sim keeps across rounds.
func TestSimRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	g := topology.Grid(8, 8, 1)
	s := NewSim(g, SimConfig{Seed: 1})
	var first *SimEndpoint
	for _, id := range g.Nodes() {
		r := &rebroadcaster{last: -1}
		r.ep = s.Attach(id, r)
		if first == nil {
			first = r.ep
		}
	}
	if err := first.Broadcast(roundPayload); err != nil {
		t.Fatal(err)
	}
	// Warm up until the wave has reached every node and the buffers
	// have grown to their high-water mark.
	for i := 0; i < 32; i++ {
		s.Step()
	}
	// The grid is bipartite: each round one colour class of 32 nodes
	// broadcasts over its 112 links.
	if n := s.Pending(); n != 112 {
		t.Fatalf("pending = %d, want 112 in steady state", n)
	}
	if got := testing.AllocsPerRun(100, func() { s.Step() }); got != 0 {
		t.Errorf("steady-state Step = %.0f allocs/op, want 0", got)
	}
}
