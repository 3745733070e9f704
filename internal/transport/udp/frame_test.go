package udp

import (
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tota/internal/tuple"
)

func TestFrameRoundTrip(t *testing.T) {
	tr := &Transport{cfg: Config{NodeID: "node-7"}}
	payload := []byte{1, 2, 3, 255}
	frame := tr.frame(frameData, payload)
	typ, id, got, err := parseFrame(frame)
	if err != nil {
		t.Fatalf("parseFrame: %v", err)
	}
	if typ != frameData || id != "node-7" || string(got) != string(payload) {
		t.Errorf("parsed = %v %q %v", typ, id, got)
	}

	hello := tr.frame(frameHello, nil)
	typ, id, got, err = parseFrame(hello)
	if err != nil {
		t.Fatalf("parseFrame(hello): %v", err)
	}
	if typ != frameHello || id != "node-7" || len(got) != 0 {
		t.Errorf("hello parsed = %v %q %v", typ, id, got)
	}
}

// TestCountersFieldsInDeclarationOrder: fields, the list Stats loops
// over, names every counter once, in declaration order.
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

func TestParseFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{1, 0},                   // empty sender id
		{1, 0x80},                // id length's varint cut off
		{frameData, 200, 1, 'x'}, // id length beyond buffer
		{frameData, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // id length past 64 bits
	}
	for _, c := range cases {
		if _, _, _, err := parseFrame(c); err == nil {
			t.Errorf("parseFrame(%v) accepted", c)
		}
	}
}

// TestEmptySenderIDAdoptsNoNeighbor: a hello naming the empty id is
// dropped as a bad frame, so a fresh transport that receives one has no
// neighbor "".
func TestEmptySenderIDAdoptsNoNeighbor(t *testing.T) {
	tr, err := New(Config{NodeID: "self"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	tr.SetHandler(&nbrRecorder{})
	tr.Start()
	raddr, err := net.ResolveUDPAddr("udp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte{frameHello, 0}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); tr.Stats().Received == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the datagram never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if got := tr.Stats().BadFrames; got != 1 {
		t.Errorf("BadFrames = %d, want 1", got)
	}
	if nbrs := tr.Neighbors(); len(nbrs) != 0 {
		t.Errorf("Neighbors() = %q after an empty-id hello, want none", nbrs)
	}
}

// Property: every frame round-trips, and parseFrame never panics on
// arbitrary bytes.
func TestFrameQuick(t *testing.T) {
	f := func(id string, payload []byte, garbage []byte) bool {
		tr := &Transport{cfg: Config{NodeID: tuple.NodeID(id)}}
		typ, gotID, gotPayload, err := parseFrame(tr.frame(frameData, payload))
		if id == "" { // no node has the empty id
			return err != nil
		}
		if err != nil || typ != frameData || string(gotID) != id ||
			string(gotPayload) != string(payload) {
			return false
		}
		_, _, _, _ = parseFrame(garbage) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGarbageDatagramsIgnored feeds raw junk to a live socket: the
// transport must survive and keep working.
func TestGarbageDatagramsIgnored(t *testing.T) {
	ta, na := newUDPNode(t, "ga")
	tb, nb := newUDPNode(t, "gb")
	connect(t, ta, tb)
	ta.Start()
	tb.Start()
	// tb.Send("ga", …) needs gb to have heard ga's hello, not only the
	// reverse: wait for both sides.
	eventually(t, "discovery", func() bool {
		return len(na.Neighbors()) == 1 && len(nb.Neighbors()) == 1
	})

	// Throw junk at a's socket from an unknown sender.
	if err := tb.AddPeer(ta.Addr()); err != nil {
		t.Fatal(err)
	}
	conn := tb // reuse b's socket via its exported surface: send raw data frames with bad payloads
	for i := 0; i < 20; i++ {
		// Bad engine payloads inside valid frames: decode errors.
		if err := conn.Send("ga", []byte{0xff, 0xee, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "decode errors absorbed", func() bool {
		return na.Stats().DecodeErrors >= 20
	})
	// Still functional afterwards.
	if len(na.Neighbors()) != 1 {
		t.Error("transport wedged by garbage")
	}
}
