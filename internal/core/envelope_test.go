package core_test

import (
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// announce encodes a gradient announcement of structure src#1 carrying
// value val, as a neighbor holding it at that value sends it.
func announce(t *testing.T, val float64) []byte {
	t.Helper()
	g := pattern.NewGradient("f")
	g.SetID(tuple.ID{Node: "src", Seq: 1})
	g.Val = val
	data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: uint16(val), Tuple: g})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// heldValue returns the value of the src#1 copy n stores.
func heldValue(t *testing.T, n *core.Node) float64 {
	t.Helper()
	got := n.Read(pattern.ByName(pattern.KindGradient, "f"))
	if len(got) != 1 {
		t.Fatalf("node stores %d copies of the structure", len(got))
	}
	return got[0].(*pattern.Gradient).Val
}

// TestHeldAnnouncementReadFromEnvelope: once a node holds a structure,
// a later announcement's value comes from its bytes and maintenance
// adopts it, exactly as if the tuple had been built.
func TestHeldAnnouncementReadFromEnvelope(t *testing.T) {
	tn := newTestNet(t, topology.Line(2))
	n, from := tn.node(topology.NodeName(0)), topology.NodeName(1)
	n.HandlePacket(from, announce(t, 3))
	if v := heldValue(t, n); v != 4 {
		t.Fatalf("first contact stored value %g, want 4", v)
	}
	adopts := n.Stats().MaintAdopt
	n.HandlePacket(from, announce(t, 1))
	if v := heldValue(t, n); v != 2 {
		t.Errorf("after a better announcement the node holds %g, want 2", v)
	}
	if d := n.Stats().MaintAdopt - adopts; d != 1 {
		t.Errorf("%d adoptions, want 1", d)
	}
}

// unregistered is a tuple kind no factory rebuilds.
type unregistered struct{ tuple.Base }

func (*unregistered) Kind() string           { return "core-test-unregistered" }
func (*unregistered) Content() tuple.Content { return tuple.Content{tuple.S("name", "x")} }

// TestUnknownKindIsDecodeError: a well-formed frame whose tuple no
// factory rebuilds is counted as undecodable and leaves nothing behind.
func TestUnknownKindIsDecodeError(t *testing.T) {
	tn := newTestNet(t, topology.Line(2))
	n := tn.node(topology.NodeName(0))
	u := &unregistered{}
	u.SetID(tuple.ID{Node: "src", Seq: 1})
	data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: u})
	if err != nil {
		t.Fatal(err)
	}
	n.HandlePacket(topology.NodeName(1), data)
	if s := n.Stats(); s.DecodeErrors != 1 || s.Stored != 0 || s.DupDropped != 0 {
		t.Errorf("stats after an unknown kind: %+v", s)
	}
	if n.StoreSize() != 0 {
		t.Errorf("store holds %d tuples", n.StoreSize())
	}
}
