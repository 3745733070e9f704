package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/retry"
	"tota/internal/tuple"
)

// refEncodeFrame is EncodeFrame as it was before event frames got their
// own encoder: json.Marshal of the envelope behind a length prefix. It
// is the reference the event encoder must match byte for byte.
func refEncodeFrame(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	return buf, nil
}

// checkEventCodec holds one event against the reference in both
// directions: EncodeFrame and the gateway's render-once-then-splice
// route write json.Marshal's bytes, and whatever decodeEvent accepts of
// them it decodes as json.Unmarshal does.
func checkEventCodec(t *testing.T, ev Event, tup tuple.Tuple) {
	t.Helper()
	want, err := refEncodeFrame(Frame{Event: &ev})
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	got, err := EncodeFrame(Frame{Event: &ev})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("EncodeFrame differs (%v):\n got %s\nwant %s", err, got[4:], want[4:])
	}
	shared := appendEventPeer([]byte{}, ev.Peer)
	if tup != nil {
		if shared, err = tuple.AppendTupleJSON(append(shared, tupleMember...), tup); err != nil {
			t.Fatal(err)
		}
	}
	header := ev
	header.Peer, header.Tuple = "", nil
	if got, err = encodeEvent(&header, shared); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("spliced frame differs (%v):\n got %s\nwant %s", err, got[4:], want[4:])
	}
	checkEventDecode(t, want[4:])
}

// checkEventDecode compares decodeEvent with json.Unmarshal on one
// payload; arbitrary bytes are welcome.
func checkEventDecode(t *testing.T, body []byte) {
	t.Helper()
	ev, tup, ok := decodeEvent(tuple.DefaultRegistry, body)
	if !ok {
		return // the client hands the payload to json.Unmarshal itself
	}
	var fr Frame
	if err := json.Unmarshal(body, &fr); err != nil || fr.Resp != nil || fr.Event == nil {
		t.Fatalf("decodeEvent accepted %q, json.Unmarshal says %v / %+v", body, err, fr)
	}
	if !reflect.DeepEqual(ev, *fr.Event) {
		t.Fatalf("events differ on %q:\n got %+v\nwant %+v", body, ev, *fr.Event)
	}
	if len(ev.Tuple) == 0 {
		if tup != nil {
			t.Fatalf("tuple out of nowhere on %q", body)
		}
		return
	}
	want, err := tuple.UnmarshalTupleJSON(tuple.DefaultRegistry, fr.Event.Tuple)
	if err != nil || tup == nil || tup.Kind() != want.Kind() || tup.ID() != want.ID() || !tup.Content().Equal(want.Content()) {
		t.Fatalf("tuples differ on %q: got %v, want %v (%v)", body, tup, want, err)
	}
}

// TestGatewayEventFrameMatchesJSON is the byte-identity table for event
// frames: every omitempty combination, peers and types that need
// escaping, against json.Marshal.
func TestGatewayEventFrameMatchesJSON(t *testing.T) {
	flood := pattern.NewFlood("hot", tuple.I("seq", 41), tuple.S("pad", `<"é`), tuple.F("x", 1e-7), tuple.Bin("raw", []byte{0, 255}))
	flood.SetID(tuple.ID{Node: "127.0.0.1:4000", Seq: 9})
	floodJSON, err := tuple.MarshalTupleJSON(flood)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, typ := range []string{core.TupleArrived.String(), "", `odd "<type>" é`} {
		for _, peer := range []string{"", "n1", `a"quote`, "<html>&", "nœud-é\u2028", "bad\xffutf8", strings.Repeat("long-peer-", 40)} {
			for mask := 0; mask < 16; mask++ {
				ev := Event{Type: typ, Sub: 7, GSeq: 100000, Peer: peer}
				var tup tuple.Tuple
				if mask&1 != 0 {
					ev.DSeq = 18446744073709551615
				}
				if mask&2 != 0 {
					ev.Drops = 3
				}
				if mask&4 != 0 {
					ev.Tuple, tup = floodJSON, flood
				}
				ev.Replay = mask&8 != 0
				checkEventCodec(t, ev, tup)
				frames++
			}
		}
	}
	if _, _, ok := decodeEvent(tuple.DefaultRegistry, []byte(`{"event":{"ev":"tuple-arrived","sub":7,"gseq":9,"dseq":2,"tuple":`+string(floodJSON)+`}}`)); !ok {
		t.Error("decodeEvent refused the gateway's own layout: every event would take the json.Unmarshal route")
	}
	t.Logf("%d frames compared", frames)

	big := Event{Type: "t", Tuple: json.RawMessage(`"` + strings.Repeat("x", MaxFrameBytes) + `"`)}
	if _, err := EncodeFrame(Frame{Event: &big}); err != ErrFrameTooLarge {
		t.Errorf("oversized event frame: err = %v, want ErrFrameTooLarge", err)
	}
}

// gatewayFrameSeeds are payloads decodeEvent must treat as json.Unmarshal
// does — most by declining them.
var gatewayFrameSeeds = []string{
	`{"event":{"ev":"tuple-arrived","sub":1,"gseq":2}}`,
	`{"event":{"ev":"tuple-arrived","sub":1,"gseq":2,"dseq":0,"drops":0,"peer":"","replay":true}}`,
	`{"event":{"ev":"neighbor-added","sub":1,"gseq":2,"peer":"n1","tuple":{"kind":"tota:neighbor","id":"#0","content":[]}}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple":{"kind":"flood","id":"n#1","content":[{"name":"name","type":"string","value":"a"}]},"replay":true}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple":{"kind":"nope","id":"n#1","content":[]}}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple":null}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple":}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple":5}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple": {"kind":"flood","id":"n#1","content":[]}}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple":{"kind":"flood","id":"n#1","content":[]} }}`,
	`{"event":{"ev":"x","sub":01,"gseq":2}}`,
	`{"event":{"ev":"x","sub":-1,"gseq":2}}`,
	`{"event":{"ev":"x","sub":18446744073709551616,"gseq":2}}`,
	`{"event":{"ev":"x","sub":1.0,"gseq":2}}`,
	`{"event":{"ev":"esc\u0061ped","sub":1,"gseq":2}}`,
	`{"event":{"ev":"x","gseq":2,"sub":1}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"replay":false}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2}} `,
	`{"event":{"ev":"x","sub":1,"gseq":2}}}`,
	`{"event":{"ev":"x","sub":1,"gseq":2}`,
	`{"event":{"ev":"x","sub":1,"gseq":2},"resp":{"seq":1,"ok":true}}`,
	`{"event":{"ev":"x","sub":1,"gseq":`,
	`{"event":{"ev":"x","sub":1,"gseq":2,"tuple":`,
	`{"event":{"ev":"x`,
	`{"resp":{"seq":1,"ok":true}}`,
	`{"event":null}`, `{}`, `null`, ``,
}

func TestGatewayEventDecodeMatchesJSON(t *testing.T) {
	for _, s := range gatewayFrameSeeds {
		checkEventDecode(t, []byte(s))
	}
}

// FuzzGatewayFrame builds an Event from the fuzzed fields and holds the
// event codec against encoding/json in both directions, then feeds the
// raw bytes to the client's decoder as a payload: it must never panic,
// and must agree with json.Unmarshal on whatever it accepts.
func FuzzGatewayFrame(f *testing.F) {
	f.Add("tuple-arrived", uint64(7), uint64(100), uint64(5), uint64(0), "", "hot", "pad", int64(3), 1.5, true, false, []byte(gatewayFrameSeeds[0]))
	f.Add("neighbor-added", uint64(1), uint64(1), uint64(0), uint64(9), `p"<é`, "", "", int64(0), 0.0, false, true, []byte(gatewayFrameSeeds[3]))
	f.Add("é", uint64(0), ^uint64(0), uint64(1), uint64(1), "bad\xff", "n\x00", "<&>", int64(-1), -1e-9, true, true, []byte(gatewayFrameSeeds[2]))
	for _, s := range gatewayFrameSeeds {
		f.Add("t", uint64(1), uint64(1), uint64(1), uint64(0), "", "", "", int64(0), 0.0, false, false, []byte(s))
	}
	f.Fuzz(func(t *testing.T, typ string, sub, gseq, dseq, drops uint64, peer, name, pad string, n int64, x float64, hasTuple, replay bool, raw []byte) {
		ev := Event{Type: typ, Sub: sub, GSeq: gseq, DSeq: dseq, Drops: drops, Peer: peer, Replay: replay}
		var tup tuple.Tuple
		if hasTuple {
			fl := pattern.NewFlood(name, tuple.S("pad", pad), tuple.I("n", n), tuple.F("x", x), tuple.Bin("raw", raw))
			fl.SetID(tuple.ID{Node: tuple.NodeID(peer), Seq: gseq})
			data, err := tuple.MarshalTupleJSON(fl)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) < MaxFrameBytes/2 {
				ev.Tuple, tup = data, fl
			}
		}
		checkEventCodec(t, ev, tup)
		checkEventDecode(t, raw)
	})
}

// checkRPCCodec holds one request and one response frame against the
// reference: EncodeFrame writes json.Marshal's bytes (or fails where it
// fails), and whatever decodeRequest and decodeResponse accept of them
// they decode as json.Unmarshal does.
func checkRPCCodec(t *testing.T, req Request, resp Response) {
	t.Helper()
	for _, v := range []any{req, Frame{Resp: &resp}} {
		want, wantErr := refEncodeFrame(v)
		got, err := EncodeFrame(v)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("EncodeFrame(%T) differs (%v, reference %v):\n got %s\nwant %s", v, err, wantErr, got, want)
		}
		if wantErr == nil {
			checkRPCDecode(t, want[4:])
		}
	}
}

// checkRPCDecode compares decodeRequest and decodeResponse with
// json.Unmarshal on one payload; arbitrary bytes are welcome.
func checkRPCDecode(t *testing.T, body []byte) {
	t.Helper()
	if req, ok := decodeRequest(body); ok {
		var ref Request
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("decodeRequest accepted %q, json.Unmarshal says %v", body, err)
		}
		// Content compares with Field.Equal, which holds NaN equal to NaN.
		if !req.Content.Equal(ref.Content) || (req.Content == nil) != (ref.Content == nil) {
			t.Fatalf("contents differ on %q:\n got %v\nwant %v", body, req.Content, ref.Content)
		}
		req.Content, ref.Content = nil, nil
		if !reflect.DeepEqual(req, ref) {
			t.Fatalf("requests differ on %q:\n got %+v\nwant %+v", body, req, ref)
		}
	}
	if resp, ok := decodeResponse(body); ok {
		var fr Frame
		if err := json.Unmarshal(body, &fr); err != nil || fr.Event != nil || fr.Resp == nil {
			t.Fatalf("decodeResponse accepted %q, json.Unmarshal says %v / %+v", body, err, fr)
		}
		if !reflect.DeepEqual(resp, *fr.Resp) {
			t.Fatalf("responses differ on %q:\n got %+v\nwant %+v", body, resp, *fr.Resp)
		}
	}
}

// TestGatewayRPCFrameMatchesJSON is the byte-identity table for the
// inject request and its response: every omitempty combination, strings
// that need escaping, non-finite floats and bytes fields, and the frames
// with other members, which json.Marshal keeps rendering.
func TestGatewayRPCFrameMatchesJSON(t *testing.T) {
	contents := []tuple.Content{
		nil,
		{},
		pattern.NewDownhill("inbox", tuple.I("seq", 41), tuple.I("from", -7), tuple.S("pad", "aZ9")).Content(),
		{tuple.F("inf", math.Inf(1)), tuple.F("-inf", math.Inf(-1)), tuple.F("nan", math.NaN()), tuple.F("tiny", 1e-7), tuple.F("big", 1e21)},
		{tuple.Bin("raw", []byte{0, 255, '"'}), tuple.Bin("empty", []byte{}), tuple.Bin("nil", nil)},
		{tuple.S(`<"é>`, "bad\xffutf8 \u2028 &"), tuple.S("", "unnamed"), tuple.B("yes", true), tuple.I("min", math.MinInt64)},
		{tuple.S("dup", "a"), tuple.S("dup", "b")},       // json.Marshal does not validate
		{tuple.Field{Name: "bad", Value: 3}},             // nor does it accept an int
		{tuple.Field{Name: "bad", Value: []string{"x"}}}, // or any other type
	}
	frames := 0
	for _, op := range []string{OpInject, OpPing, "", `op"<é>`} {
		for _, kind := range []string{"", pattern.KindDownhill, "k\\ind\x00"} {
			for _, c := range contents {
				for _, seq := range []uint64{0, 1, math.MaxUint64} {
					checkRPCCodec(t, Request{Op: op, Seq: seq, Kind: kind, Content: c}, Response{Seq: seq})
					frames++
				}
			}
		}
	}
	for _, ok := range []bool{false, true} {
		for _, errS := range []string{"", "gateway: inject: boom", `gateway: unknown op "<x>"`, "bad\xff"} {
			for _, id := range []string{"", "n0#12", "127.0.0.1:40000#18446744073709551615", "é#1"} {
				checkRPCCodec(t, Request{Op: OpInject, Seq: 3}, Response{Seq: 9, OK: ok, Err: errS, ID: id})
				frames++
			}
		}
	}
	// Members the hand-written routes leave to json.Marshal.
	for _, req := range []Request{
		{Op: OpSubscribe, Seq: 1, Template: json.RawMessage(`{"kind":"k"}`)},
		{Op: OpSubscribe, Seq: 1, FromSeq: 5, Epoch: "e"},
		{Op: OpUnsubscribe, Seq: 1, Sub: 4},
		{Op: OpInject, Seq: 1, Kind: "k", Content: contents[2], Epoch: "odd"},
	} {
		checkRPCCodec(t, req, Response{Seq: 1, OK: true, Sub: 4, Epoch: "e", NextSeq: 9, Replay: ReplayHit})
		frames++
	}
	checkRPCCodec(t, Request{}, Response{OK: true, Tuples: []json.RawMessage{json.RawMessage(`{"kind":"k"}`)}})
	t.Logf("%d request/response pairs compared", frames)

	for _, body := range []string{
		`{"op":"inject","seq":7,"kind":"tota:downhill","content":[{"name":"name","type":"string","value":"inbox"}]}`,
		`{"resp":{"seq":7,"ok":true,"id":"n0#1"}}`,
	} {
		if _, ok := decodeRequest([]byte(body)); !ok && strings.HasPrefix(body, `{"op"`) {
			t.Errorf("decodeRequest refused the client's own layout %s: every inject would take json.Unmarshal", body)
		}
		if _, ok := decodeResponse([]byte(body)); !ok && strings.HasPrefix(body, `{"resp"`) {
			t.Errorf("decodeResponse refused the gateway's own layout %s: every inject would take json.Unmarshal", body)
		}
	}
	big := Request{Op: OpInject, Content: tuple.Content{tuple.S("pad", strings.Repeat("x", MaxFrameBytes))}}
	if _, err := EncodeFrame(big); err != ErrFrameTooLarge {
		t.Errorf("oversized request frame: err = %v, want ErrFrameTooLarge", err)
	}
}

// gatewayRPCSeeds are payloads decodeRequest and decodeResponse must treat
// as json.Unmarshal does — most by declining them.
var gatewayRPCSeeds = []string{
	`{"op":"inject","seq":1}`,
	`{"op":"inject","seq":1,"kind":"k","content":[]}`,
	`{"op":"inject","seq":1,"kind":"k","content":[{"name":"a","type":"float","value":"+Inf"},{"type":"bytes","value":"AP8="}]}`,
	`{"op":"inject","seq":1,"content":null}`,
	`{"op":"inject","seq":1,"content": []}`,
	`{"op":"inject","seq":1,"content":[]`,
	`{"op":"inject","seq":1,"content":[}`,
	`{"op":"inject","seq":1,"content":[{"type":"int","value":1.5}]}`,
	`{"op":"inject","seq":1,"content":[{"type":"int","value":1}],"content":[]}`,
	`{"op":"inject","seq":1,"content":5}`,
	`{"op":"inject","seq":1,"kind":"k","sub":2}`,
	`{"op":"inject","seq":1,"kind":"k"} `,
	`{"op":"inject","seq":1,"kind":"k"}}`,
	`{"seq":1,"op":"inject"}`,
	`{"op":"in\u006aect","seq":1}`,
	`{"op":"inject","seq":01}`,
	`{"op":"inject","seq":-1}`,
	`{"op":"inject","seq":18446744073709551616}`,
	`{"op":"inject","seq":1e3}`,
	`{"op":"inject","seq":`,
	`{"op":"inject","seq":1,"kind":null}`,
	`{"OP":"inject","seq":1}`,
	`{"resp":{"seq":1,"ok":true}}`,
	`{"resp":{"seq":1,"ok":false,"err":"gateway: inject: x"}}`,
	`{"resp":{"seq":1,"ok":true,"err":"","id":"n#1"}}`,
	`{"resp":{"seq":1,"ok":true,"id":"n#1","sub":2}}`,
	`{"resp":{"seq":1,"ok":1}}`,
	`{"resp":{"seq":1,"ok":truex}}`,
	`{"resp":{"seq":1}}`,
	`{"resp":{"seq":1,"ok":true},"event":null}`,
	`{"resp":{"seq":1,"ok":true}} `,
	`{"resp":{"seq":1,"ok":true,"err":"esc\"aped"}}`,
	`{"resp":{"ok":true,"seq":1}}`,
	`{"resp":{"seq":1,"ok":true}`,
	`{"resp":null}`, `{}`, `null`, ``,
}

func TestGatewayRPCDecodeMatchesJSON(t *testing.T) {
	for _, s := range gatewayRPCSeeds {
		checkRPCDecode(t, []byte(s))
	}
}

// FuzzGatewayRPC builds an inject request and a response from the fuzzed
// fields and holds both codecs against encoding/json in both directions,
// then feeds the raw bytes to the gateway's and the client's decoders:
// they must never panic, and must agree with json.Unmarshal on whatever
// they accept.
func FuzzGatewayRPC(f *testing.F) {
	f.Add(OpInject, uint64(7), pattern.KindDownhill, "pad", "inbox", int64(41), 1.5, []byte{0, 255}, true, "", "n0#1", []byte(gatewayRPCSeeds[0]))
	f.Add("é<>", ^uint64(0), "k\"", "", "bad\xff", int64(-1), math.Inf(-1), []byte(nil), false, `err "q"`, "", []byte(gatewayRPCSeeds[2]))
	f.Add("", uint64(0), "", "\u2028", "", int64(0), math.NaN(), []byte{}, true, "x", "é", []byte(gatewayRPCSeeds[23]))
	for _, s := range gatewayRPCSeeds {
		f.Add(OpInject, uint64(1), "k", "f", "v", int64(0), 0.0, []byte(nil), true, "", "", []byte(s))
	}
	f.Fuzz(func(t *testing.T, op string, seq uint64, kind, field, s string, n int64, x float64, raw []byte, ok bool, errS, id string, body []byte) {
		var c tuple.Content
		if len(s)%3 != 0 { // leave some requests without content
			c = tuple.Content{tuple.S("name", s), tuple.S(field, s), tuple.I("n", n), tuple.F("x", x), tuple.Bin("raw", raw)}
		}
		checkRPCCodec(t, Request{Op: op, Seq: seq, Kind: kind, Content: c}, Response{Seq: seq, OK: ok, Err: errS, ID: id})
		checkRPCDecode(t, body)
	})
}

// TestGatewayLoneEventIsFlushedAtOnce guards the flush rule: the writer
// flushes whenever its queue is empty, so neither a lone event nor the
// last frame of a burst may sit in the write buffer waiting for company.
func TestGatewayLoneEventIsFlushedAtOnce(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	c := testClient(t, gw.Addr())
	sub, err := c.Subscribe(pattern.ByName(pattern.KindFlood, "lone"))
	if err != nil {
		t.Fatal(err)
	}
	arrival := func(what string) time.Duration {
		start := time.Now()
		if _, err := n.Inject(pattern.NewFlood("lone")); err != nil {
			t.Fatal(err)
		}
		waitTupleEvent(t, sub, core.TupleArrived.String())
		d := time.Since(start)
		if d > 100*time.Millisecond {
			t.Errorf("%s took %v to arrive, want < 100ms", what, d)
		}
		return d
	}
	arrival("a lone event")
	time.Sleep(20 * time.Millisecond) // writer idle again
	arrival("a second lone event")

	// A frame of a burst left in the buffer would only leave with the
	// next event: waiting for the whole burst would time out.
	const burst = 200 // fits the connection's queue even if the writer never ran
	injectN(t, n, "lone", burst)
	for i := 0; i < burst; i++ {
		waitTupleEvent(t, sub, core.TupleArrived.String())
	}
	arrival("the event after a burst")
	if sub.GapViolations() != 0 || sub.Drops() != 0 {
		t.Errorf("gap violations %d, drops %d, want none", sub.GapViolations(), sub.Drops())
	}
}

// TestGatewayStalledReaderAccountingThroughBufferedWriter: coalescing
// writes must not disturb per-frame accounting. A reader that stalls
// until the kernel buffers and the connection's queue are full loses
// events; every DSeq gap it then observes must equal the growth of
// Drops exactly, and the client's own verification must agree.
func TestGatewayStalledReaderAccountingThroughBufferedWriter(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	resize(gw, 16, 4)
	c := Dial(gw.Addr(), ClientConfig{Policy: retry.New(5), RequestTimeout: 3 * time.Second})
	c.eventBuffer = 1
	t.Cleanup(func() { _ = c.Close() })
	sub, err := c.Subscribe(pattern.ByName(pattern.KindFlood, "stall"))
	if err != nil {
		t.Fatal(err)
	}
	// 32 KiB frames (larger than either side's stream buffer), 16 MiB in
	// all: more than loopback socket buffers hold, so the writer blocks
	// and the four-frame queue overflows while nobody reads sub.Events.
	pad := tuple.S("pad", strings.Repeat("p", 32<<10))
	const stalled = 512
	for i := 0; i < stalled; i++ {
		if _, err := n.Inject(pattern.NewFlood("stall", pad, tuple.I("i", int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if gw.Stats().EventsDropped == 0 {
		t.Fatal("the stalled reader lost nothing: the test no longer stalls the writer")
	}
	// Drain. The tail marker is injected once there is room again, and
	// re-injected until one gets through.
	var prev SubEvent
	seen, sent := 0, stalled
	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case ev := <-sub.Events:
			if ev.Tuple == nil {
				continue
			}
			if ev.DSeq <= prev.DSeq || ev.DSeq-prev.DSeq-1 != ev.Drops-prev.Drops {
				t.Fatalf("dseq %d → %d but drops %d → %d: the gap is not the drop delta", prev.DSeq, ev.DSeq, prev.Drops, ev.Drops)
			}
			prev = ev
			seen++
			done = ev.Tuple.Content().GetString("name") == "stall" && ev.Tuple.Content().GetInt("i") < 0
		case <-tick.C:
			sent++
			if _, err := n.Inject(pattern.NewFlood("stall", tuple.I("i", -1))); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("no tail marker after %d events", seen)
		}
	}
	if prev.Drops == 0 || uint64(seen)+prev.Drops != prev.DSeq {
		t.Errorf("saw %d events and %d drops by dseq %d", seen, prev.Drops, prev.DSeq)
	}
	if v := sub.GapViolations(); v != 0 {
		t.Errorf("GapViolations = %d, want 0", v)
	}
	st := gw.Stats()
	if st.EventsDelivered+st.EventsDropped != int64(sent) || st.EventsDropped < int64(prev.Drops) {
		t.Errorf("stats %+v do not add up to %d matched events with ≥ %d drops", st, sent, prev.Drops)
	}
}

// TestGatewayFanoutHammer runs four injectors against two connections
// whose subscriptions come and go, under -race in CI. Every standing
// subscription must see a contiguous delivery sequence, every event must
// arrive on a handle whose template it matches, and the client's
// server-id route must never point at a closed or detached handle.
func TestGatewayFanoutHammer(t *testing.T) {
	n, gw := newTestGateway(t, Config{})
	resize(gw, ringSize, 1<<14)
	const injectors, perInjector, churners = 4, 300, 2
	name := func(k int) string { return fmt.Sprintf("inj-%d", k) }

	var failed atomic.Bool
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}
	// check drains one subscription: names must match its template and,
	// on a standing subscription, dseq must advance by one (or by the
	// drops it reports). A churning one subscribes mid-stream, where ring
	// replay may overlap live fan-out and the client dedups the overlap.
	check := func(s *Subscription, want string, contiguous bool) (events int) {
		var prev SubEvent
		for ev := range s.Events {
			if ev.Tuple == nil {
				continue
			}
			if got := ev.Tuple.Content().GetString("name"); got != want {
				fail("event %q routed to the subscription for %q", got, want)
			}
			if contiguous && ev.DSeq != prev.DSeq+1+(ev.Drops-prev.Drops) {
				fail("%s: dseq %d → %d with drops %d → %d", want, prev.DSeq, ev.DSeq, prev.Drops, ev.Drops)
			}
			prev = ev
			events++
		}
		return events
	}

	stop := make(chan struct{})
	var churn, standing sync.WaitGroup
	var clients []*Client
	var standingSubs []*Subscription
	standingCount := make([]int, 2*injectors)
	for ci := 0; ci < 2; ci++ {
		c := testClient(t, gw.Addr())
		clients = append(clients, c)
		for k := 0; k < injectors; k++ {
			s, err := c.Subscribe(pattern.ByName(pattern.KindFlood, name(k)))
			if err != nil {
				t.Fatal(err)
			}
			standingSubs = append(standingSubs, s)
			standing.Add(1)
			go func(slot int) {
				defer standing.Done()
				standingCount[slot] = check(s, name(slot%injectors), true)
			}(ci*injectors + k)
		}
		for w := 0; w < churners; w++ {
			churn.Add(1)
			go func(w int) {
				defer churn.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					want := name((w + i) % injectors)
					s, err := c.Subscribe(pattern.ByName(pattern.KindFlood, want))
					if err != nil {
						fail("churn subscribe: %v", err)
						return
					}
					drained := make(chan struct{})
					go func() { check(s, want, false); close(drained) }()
					time.Sleep(time.Duration(i%3) * time.Millisecond)
					if err := c.Unsubscribe(s); err != nil {
						fail("churn unsubscribe: %v", err)
					}
					<-drained
					c.mu.Lock()
					for id, h := range c.route {
						if h == s {
							fail("route[%d] still points at an unsubscribed handle", id)
						}
					}
					c.mu.Unlock()
				}
			}(w)
		}
	}

	var inject sync.WaitGroup
	for k := 0; k < injectors; k++ {
		inject.Add(1)
		go func(k int) {
			defer inject.Done()
			for i := 0; i < perInjector && !failed.Load(); i++ {
				if _, err := n.Inject(pattern.NewFlood(name(k), tuple.I("i", int64(i)))); err != nil {
					fail("inject: %v", err)
					return
				}
			}
		}(k)
	}
	inject.Wait()
	close(stop)
	churn.Wait()

	// Nothing was dropped (the queues are deep enough), so every standing
	// subscription ends at exactly perInjector events; wait for the last.
	deadline := time.Now().Add(20 * time.Second)
	for _, s := range standingSubs {
		for s.lastDSeqNow() < perInjector && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for _, c := range clients {
		c.mu.Lock()
		if len(c.route) != injectors {
			t.Errorf("route holds %d handles, want the %d standing ones", len(c.route), injectors)
		}
		for id, h := range c.route {
			h.mu.Lock()
			if h.closed || h.serverID != id {
				t.Errorf("route[%d] → handle closed=%v serverID=%d", id, h.closed, h.serverID)
			}
			h.mu.Unlock()
		}
		c.mu.Unlock()
	}
	for _, c := range clients {
		_ = c.Close()
	}
	standing.Wait()
	for slot, got := range standingCount {
		if got != perInjector {
			t.Errorf("standing subscription %d saw %d events, want %d", slot, got, perInjector)
		}
	}
	if st := gw.Stats(); st.EventsDropped != 0 {
		t.Errorf("%d events dropped with %d-deep queues", st.EventsDropped, 1<<14)
	}
}

func (s *Subscription) lastDSeqNow() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastDSeq
}

var benchFrameSink []byte

// benchFlood is the load rig's gw_fanout tuple: 367 bytes of JSON.
func benchFlood() *pattern.Flood {
	fl := pattern.NewFlood("hot", tuple.I("seq", 4100), tuple.I("t", 1727777777123456789), tuple.S("pad", strings.Repeat("aZ9", 21)+"x"))
	fl.SetID(tuple.ID{Node: "127.0.0.1:40000", Seq: 4101})
	return fl
}

// BenchmarkGatewayEncodeEvent is what the fan-out pays per subscription:
// one event frame around an already rendered tuple.
func BenchmarkGatewayEncodeEvent(b *testing.B) {
	data, err := tuple.MarshalTupleJSON(benchFlood())
	if err != nil {
		b.Fatal(err)
	}
	ev := Event{Type: core.TupleArrived.String(), Sub: 7, GSeq: 100000, DSeq: 100000, Tuple: data}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFrameSink, _ = EncodeFrame(Frame{Event: &ev})
	}
}

// BenchmarkGatewayFanout100 is one engine event delivered to 100
// subscriptions on two loopback connections, inject to last receipt:
// render, match, encode, write, read, decode, route.
func BenchmarkGatewayFanout100(b *testing.B) {
	node := newTestNode(b)
	gw, err := Serve(node, "127.0.0.1:0", Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	const conns, perConn = 2, 50
	var got atomic.Int64
	round := make(chan struct{}, 1)
	for ci := 0; ci < conns; ci++ {
		c := Dial(gw.Addr(), ClientConfig{Policy: retry.New(1)})
		defer c.Close()
		for i := 0; i < perConn; i++ {
			s, err := c.Subscribe(pattern.ByName(pattern.KindFlood, "hot"))
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range s.Events {
					if got.Add(1)%(conns*perConn) == 0 {
						round <- struct{}{}
					}
				}
			}()
		}
	}
	fl := benchFlood()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.Inject(pattern.NewFlood("hot", fl.Payload...)); err != nil {
			b.Fatal(err)
		}
		<-round
	}
}
