package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"tota/internal/space"
	"tota/internal/tuple"
)

func TestHopFromVal(t *testing.T) {
	tests := []struct {
		val, step float64
		fallback  int
		want      int
	}{
		{val: 4, step: 1, fallback: 9, want: 4},
		{val: 4.4, step: 1, fallback: 9, want: 4},
		{val: 10, step: 2, fallback: 9, want: 5},
		{val: 3, step: 0, fallback: 9, want: 9},
		{val: -2, step: 1, fallback: 9, want: 0},
	}
	for _, tt := range tests {
		if got := hopFromVal(tt.val, tt.step, tt.fallback); got != tt.want {
			t.Errorf("hopFromVal(%v, %v, %d) = %d, want %d",
				tt.val, tt.step, tt.fallback, got, tt.want)
		}
	}
}

func TestClampHop(t *testing.T) {
	tests := []struct {
		give int
		want uint16
	}{
		{give: -1, want: 0},
		{give: 0, want: 0},
		{give: 7, want: 7},
		{give: math.MaxUint16 + 5, want: math.MaxUint16},
	}
	for _, tt := range tests {
		if got := clampHop(tt.give); got != tt.want {
			t.Errorf("clampHop(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestEventTypeString(t *testing.T) {
	tests := []struct {
		give EventType
		want string
	}{
		{TupleArrived, "tuple-arrived"},
		{TupleRemoved, "tuple-removed"},
		{NeighborAdded, "neighbor-added"},
		{NeighborRemoved, "neighbor-removed"},
		{EventType(99), "unknown-event"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		give Op
		want string
	}{
		{OpInject, "inject"},
		{OpRead, "read"},
		{OpDelete, "delete"},
		{OpRetract, "retract"},
		{OpAccept, "accept"},
		{Op(99), "unknown-op"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	// Fill every field via reflection so a counter missed by Add (or a
	// new field without an Add line) fails here instead of silently
	// reporting zeros in experiment rollups.
	var a Stats
	av := reflect.ValueOf(&a).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
	}
	sum := a.Add(a)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("Add dropped field %s: got %d, want %d",
				sv.Type().Field(i).Name, got, want)
		}
	}
}

// TestCountersFieldsInDeclarationOrder: fields, the list Node.Stats and
// Stats.Add loop over, names every counter once, in declaration order.
func TestCountersFieldsInDeclarationOrder(t *testing.T) {
	var c counters[int64]
	got := c.fields()
	v := reflect.ValueOf(&c).Elem()
	if len(got) != v.NumField() {
		t.Fatalf("fields lists %d counters, counters declares %d", len(got), v.NumField())
	}
	for i, p := range got {
		if p != v.Field(i).Addr().Interface() {
			t.Errorf("fields()[%d] is not %s", i, v.Type().Field(i).Name)
		}
	}
}

func TestNeighborTupleHooks(t *testing.T) {
	nt := newNeighborTuple("me", "peer", true)
	if nt.ShouldStore(nil) || nt.ShouldPropagate(nil) {
		t.Error("neighbor tuple wants to persist or propagate")
	}
	if nt.Kind() != NeighborTupleKind {
		t.Errorf("Kind = %q", nt.Kind())
	}
	c := nt.Content()
	if c.GetString("peer") != "peer" || !c.GetBool("added") || c.GetString("node") != "me" {
		t.Errorf("content = %v", c)
	}
}

// failingSender is a transport whose sends always fail.
type failingSender struct{}

var errSendBoom = errors.New("boom")

func (failingSender) Self() tuple.NodeID              { return "solo" }
func (failingSender) Neighbors() []tuple.NodeID       { return []tuple.NodeID{"ghost"} }
func (failingSender) Broadcast([]byte) error          { return errSendBoom }
func (failingSender) Send(tuple.NodeID, []byte) error { return errSendBoom }

func TestSendErrorsAreCountedNotFatal(t *testing.T) {
	n := New(failingSender{})
	g := &countingTuple{}
	if _, err := n.Inject(g); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if n.Stats().SendErrors == 0 {
		t.Error("send failure not counted")
	}
	// The tuple is still stored locally despite the failed broadcast.
	if n.StoreSize() != 1 {
		t.Errorf("StoreSize = %d", n.StoreSize())
	}
}

// countingTuple is a minimal propagating tuple for white-box tests.
type countingTuple struct {
	tuple.Base
}

func (*countingTuple) Kind() string           { return "core-test:counting" }
func (*countingTuple) Content() tuple.Content { return nil }

func TestPositionAndDefaults(t *testing.T) {
	n := New(failingSender{})
	if _, ok := n.Position(); ok {
		t.Error("a new node has a position")
	}
	n.SetLocalizer(space.FixedLocalizer{P: space.Point{X: 1, Y: 2}})
	if p, ok := n.Position(); !ok || p != (space.Point{X: 1, Y: 2}) {
		t.Errorf("Position = %v, %v", p, ok)
	}
	n.SetLocalizer(nil)
	if p, ok := n.Position(); ok {
		t.Errorf("SetLocalizer(nil) left position %v", p)
	}
	// A non-positive bound falls back to the default.
	if d := New(failingSender{}, WithMaxHops(-1)); d.cfg.MaxHops != DefaultMaxHops {
		t.Errorf("MaxHops = %d, want %d", d.cfg.MaxHops, DefaultMaxHops)
	}
}

func TestHandlePacketGarbage(t *testing.T) {
	n := New(failingSender{})
	n.HandlePacket("ghost", []byte{0xde, 0xad})
	if n.Stats().DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d", n.Stats().DecodeErrors)
	}
}

func TestDuplicateNeighborEventsIgnored(t *testing.T) {
	n := New(failingSender{})
	n.HandleNeighbor("x", true)
	n.HandleNeighbor("x", true) // duplicate add
	if got := len(n.Neighbors()); got != 2 {
		// "ghost" from the transport plus "x".
		t.Errorf("neighbors = %v", n.Neighbors())
	}
	n.HandleNeighbor("x", false)
	n.HandleNeighbor("x", false) // duplicate remove
	if got := len(n.Neighbors()); got != 1 {
		t.Errorf("neighbors after removal = %v", n.Neighbors())
	}
}

// TestRetractUnknownIDTombstones: a retraction of an id this node never
// saw leaves a tombstone in the retracted runs, not a row.
func TestRetractUnknownIDTombstones(t *testing.T) {
	n := New(failingSender{})
	id := tuple.ID{Node: "elsewhere", Seq: 3}
	n.handleRetractLockedPublic(id)
	if n.states.len() != 0 || !n.states.retracted.has(id) {
		t.Errorf("unknown retract: %d rows, retracted runs %v", n.states.len(), n.states.retracted)
	}
	// A second retract for the same id is a no-op.
	n.handleRetractLockedPublic(id)
	if got := n.stats.Retracted.Load(); got != 0 {
		t.Errorf("tombstone-only retract counted: %d", got)
	}
}

// TestInjectOverOwnTombstone: a restarted node numbers from 1 again, so
// a retraction of its earlier incarnation's tuple can bury an id it
// later assigns. Inject takes the id back and the tuple is stored.
func TestInjectOverOwnTombstone(t *testing.T) {
	n := New(failingSender{})
	n.handleRetractLockedPublic(tuple.ID{Node: n.Self(), Seq: 1})
	id, err := n.Inject(&countingTuple{})
	if err != nil || id.Seq != 1 {
		t.Fatalf("Inject = %v, %v; want seq 1", id, err)
	}
	if n.StoreSize() != 1 || n.states.retracted.has(id) {
		t.Errorf("after the inject: %d stored, id still buried: %v", n.StoreSize(), n.states.retracted.has(id))
	}
}

// handleRetractLockedPublic wraps the locked handler for white-box use.
func (n *Node) handleRetractLockedPublic(id tuple.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handleRetractLocked(id)
}
