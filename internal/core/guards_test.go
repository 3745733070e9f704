package core_test

import (
	"math"
	"testing"

	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// sentLog records, per node, every message the node hands its
// transport, in order, with batch frames unpacked.
type sentLog map[tuple.NodeID][]wire.Message

// recordingSender is a simulated endpoint that adds what it sends to a
// sentLog.
type recordingSender struct {
	*transport.SimEndpoint
	log sentLog
}

func (s recordingSender) record(data []byte) {
	m, err := wire.Decode(tuple.DefaultRegistry, data)
	if err != nil {
		panic(err)
	}
	msgs := []wire.Message{m}
	if m.Type == wire.MsgBatch {
		msgs = m.Batch
	}
	s.log[s.Self()] = append(s.log[s.Self()], msgs...)
}

func (s recordingSender) Broadcast(data []byte) error {
	s.record(data)
	return s.SimEndpoint.Broadcast(data)
}

func (s recordingSender) Send(to tuple.NodeID, data []byte) error {
	s.record(data)
	return s.SimEndpoint.Send(to, data)
}

func newRecordedNet(t *testing.T, g *topology.Graph) (*testNet, sentLog) {
	log := sentLog{}
	tn := newTestNetOn(t, g, func(ep *transport.SimEndpoint) transport.Sender {
		return recordingSender{SimEndpoint: ep, log: log}
	})
	return tn, log
}

// copyKey names one node's copy of one structure.
type copyKey struct {
	node tuple.NodeID
	id   tuple.ID
}

// announced is a copy's value and parent as its last full announcement
// gave them.
type announced struct {
	val    float64
	parent tuple.NodeID
}

// parentOnlyAnnouncements empties log and counts, per copy, the full
// announcements in it that repeat the value the copy last announced
// under a new parent. last carries each copy's last announcement from
// one call to the next.
func parentOnlyAnnouncements(log sentLog, last map[copyKey]announced) map[copyKey]int {
	count := make(map[copyKey]int)
	for node, msgs := range log {
		for _, m := range msgs {
			if m.Type != wire.MsgTuple || !m.Env.HasValue {
				continue
			}
			k, a := copyKey{node, m.Env.ID}, announced{m.Env.Value, m.Parent}
			if p, ok := last[k]; ok && p.val == a.val && p.parent != a.parent {
				count[k]++
			}
			last[k] = a
		}
	}
	clear(log)
	return count
}

// TestParentFlipAnnouncedOncePerEpoch defends the stParentFlap edge
// trigger, the fix for the parent flip-flop livelock: a copy whose
// value stays put while its parent changes re-announces at most once
// per refresh epoch. On the diamond s–{a,b}–d, d sits at 2 under both
// a and b and takes a, the lower id. Each cut of s–a withdraws a's
// copy, so d re-parents to b; each relink brings a back at 1, and d
// returns to a. Four such cycles per epoch flip d's parent eight times
// at the same value. Every epoch ends with a refresh, after which the
// field must match BFS.
func TestParentFlipAnnouncedOncePerEpoch(t *testing.T) {
	s, a, b, d := topology.NodeName(0), topology.NodeName(1), topology.NodeName(2), topology.NodeName(3)
	g := topology.New()
	for _, e := range [][2]tuple.NodeID{{s, a}, {s, b}, {a, d}, {b, d}} {
		g.AddEdge(e[0], e[1])
	}
	tn, log := newRecordedNet(t, g)
	id := injectGradient(t, tn, s, "g", math.Inf(1))
	last := make(map[copyKey]announced)
	parentOnlyAnnouncements(log, last)
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 4; i++ {
			tn.sim.RemoveEdge(s, a)
			tn.quiesce()
			tn.sim.AddEdge(s, a)
			tn.quiesce()
		}
		flips := parentOnlyAnnouncements(log, last)
		for k, c := range flips {
			if c > 1 {
				t.Errorf("epoch %d: %s announced its copy of %v %d times with an unchanged value and a new parent, want at most 1",
					epoch, k.node, k.id, c)
			}
		}
		if flips[copyKey{d, id}] == 0 {
			t.Fatalf("epoch %d: d never re-announced a new parent; the churn no longer exercises the guard", epoch)
		}
		refreshAll(tn)
		parentOnlyAnnouncements(log, last)
		tn.assertGradientMatchesBFS(s, "g", math.Inf(1))
	}
}

// TestWithdrawalDroppedWhenCopyReturns defends the flush's withdrawal
// drop: a node that withdraws its copy and re-adopts the structure
// within one batch sends the re-announcement and no withdrawal, since
// the re-announcement carries the new value and parent. On the line
// s–p–x–q, x holds 2 under p, and q (at 3 under x) is poisoned for x.
// In one batch p withdraws, leaving x no support, and q then announces
// 1 under s.
func TestWithdrawalDroppedWhenCopyReturns(t *testing.T) {
	s, p, x, q := topology.NodeName(0), topology.NodeName(1), topology.NodeName(2), topology.NodeName(3)
	tn, log := newRecordedNet(t, topology.Line(4))
	id := injectGradient(t, tn, s, "g", math.Inf(1))
	clear(log)
	withdraw, err := wire.Encode(wire.Message{Type: wire.MsgWithdraw, ID: id})
	if err != nil {
		t.Fatal(err)
	}
	lowered := pattern.NewGradient("g").WithValue(1)
	lowered.SetID(id)
	announce, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Parent: s, Ver: 100, Tuple: lowered})
	if err != nil {
		t.Fatal(err)
	}
	n := tn.node(x)
	n.BeginBatch()
	n.HandlePacket(p, withdraw)
	if got := n.Read(pattern.ByName(pattern.KindGradient, "g")); len(got) != 0 {
		t.Fatalf("x still holds %v after its only support withdrew", got)
	}
	n.HandlePacket(q, announce)
	n.EndBatch()
	var withdrawals, announcements int
	for _, m := range log[x] {
		switch {
		case m.Type == wire.MsgWithdraw && m.ID == id:
			withdrawals++
		case m.Type == wire.MsgTuple && m.Env.ID == id:
			announcements++
			if m.Env.Value != 2 || m.Parent != q {
				t.Errorf("x announced %v under %s, want 2 under %s", m.Env.Value, m.Parent, q)
			}
		}
	}
	if withdrawals != 0 || announcements != 1 {
		t.Errorf("x sent %d withdrawals and %d announcements of its copy, want 0 and 1", withdrawals, announcements)
	}
}
