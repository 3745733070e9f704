package main

import (
	"math"
	"testing"
	"time"

	"tota/internal/transport"
	"tota/internal/transport/udp"
)

// The Sender shim must leave the engine's view of the transport
// unchanged: core.New probes its Sender for the two optional interfaces.
func TestTracedSenderKeepsOptionalInterfaces(t *testing.T) {
	tr, err := udp.New(udp.Config{NodeID: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var s transport.Sender = &tracedSender{Transport: tr, tc: newTracer(), node: "n0"}
	fl, ok := s.(transport.FrameLimiter)
	if !ok || fl.FramePayloadLimit() != tr.FramePayloadLimit() {
		t.Fatalf("shim lost transport.FrameLimiter (ok=%v)", ok)
	}
	pr, ok := s.(transport.PayloadReleaser)
	if !ok || pr.ReleasesPayloads() != tr.ReleasesPayloads() {
		t.Fatalf("shim lost transport.PayloadReleaser (ok=%v)", ok)
	}
}

func TestWaterfallTilesTheOperation(t *testing.T) {
	tc := newTracer()
	at := func(usec int) time.Duration { return time.Duration(usec) * time.Microsecond }
	for op := int64(0); op < 3; op++ {
		base := int(op) * 1000
		tc.beginOp(op, at(base))
		s0 := tc.beginSend("n0", nil, at(base+60))
		tc.end(s0, at(base+65))
		h1 := tc.beginHandle("n1", "n0", at(base+80))
		s1 := tc.beginSend("n1", nil, at(base+90))
		h2 := tc.beginHandle("n2", "n1", at(base+96)) // n2 starts before n1's broadcast returns
		tc.end(s1, at(base+100))
		tc.end(h1, at(base+104))
		tc.end(h2, at(base+120))
		tc.endOp(at(base + 200))
	}
	w := tc.routeWaterfall("n0", "n1", "n2")
	if w.ops != 3 {
		t.Fatalf("tiled %d operations, want 3", w.ops)
	}
	want := waterfall{ingressUS: 60, udpSendUS: 15, hopGapUS: 15 - 4, relayHandleUS: 10, destToClientUS: 104, e2eUS: 200}
	if w.ingressUS != want.ingressUS || w.udpSendUS != want.udpSendUS || w.hopGapUS != want.hopGapUS ||
		w.relayHandleUS != want.relayHandleUS || w.destToClientUS != want.destToClientUS || w.e2eUS != want.e2eUS {
		t.Fatalf("waterfall = %+v, want %+v", w, want)
	}
	if s := w.sumOverE2E(); math.Abs(s-1) > 1e-12 {
		t.Fatalf("rows sum to %v of the end-to-end time, want exactly 1", s)
	}
	// n1's handler took 24 µs of which its nested send took 10; n2's
	// took 24 µs and sent nothing.
	if got := sortedCopy(w.handleSelfUS); len(got) != 6 || got[0] != 14 || got[2] != 14 || got[3] != 24 || got[5] != 24 {
		t.Fatalf("handler self times = %v, want three of 14 and three of 24", got)
	}
	for i := range tc.spans {
		s := tc.spans[i]
		if s.Name == spanSend && s.Node == "n1" && (s.Parent == noSpan || tc.spans[s.Parent].Name != spanHandle) {
			t.Fatalf("n1's send is not a child of its handler: %+v", s)
		}
		if s.Name == spanHandle && (s.Parent == noSpan || tc.spans[s.Parent].Name != spanSend) {
			t.Fatalf("handler span has no causing send: %+v", s)
		}
	}
}
