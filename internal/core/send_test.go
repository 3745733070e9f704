package core_test

import (
	"bytes"
	"math"
	"testing"

	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// sentPayload is one payload as the transport received it, with a copy
// taken at the moment of the send.
type sentPayload struct {
	data, snapshot []byte
}

// releasingSender is a simulated endpoint that declares it releases
// payloads (transport.PayloadReleaser) and records every payload handed
// to it. The simulated radio still queues the bytes zero-copy, so a
// sender that rewrote them after the call would corrupt packets in
// flight.
type releasingSender struct {
	*transport.SimEndpoint
	sent *[]sentPayload
}

func (s releasingSender) ReleasesPayloads() bool { return true }

func (s releasingSender) record(data []byte) {
	*s.sent = append(*s.sent, sentPayload{data: data, snapshot: bytes.Clone(data)})
}

func (s releasingSender) Broadcast(data []byte) error {
	s.record(data)
	return s.SimEndpoint.Broadcast(data)
}

func (s releasingSender) Send(to tuple.NodeID, data []byte) error {
	s.record(data)
	return s.SimEndpoint.Send(to, data)
}

// TestSentPayloadsStayImmutable: bytes handed to a transport are never
// written again, even by a transport that says it has released them.
// A link repair re-encodes announcements whose earlier bytes are still
// queued; none of those earlier payloads may change.
func TestSentPayloadsStayImmutable(t *testing.T) {
	var sent []sentPayload
	g := topology.Grid(4, 4, 1)
	tn := newTestNetOn(t, g, func(ep *transport.SimEndpoint) transport.Sender {
		return releasingSender{SimEndpoint: ep, sent: &sent}
	})
	src := topology.NodeName(0)
	injectGradient(t, tn, src, "f", math.Inf(1))
	a, b := topology.NodeName(0), topology.NodeName(1)
	tn.sim.RemoveEdge(a, b)
	tn.quiesce()
	tn.sim.AddEdge(a, b)
	tn.quiesce()
	tn.assertGradientMatchesBFS(src, "f", math.Inf(1))

	changed := 0
	for _, p := range sent {
		if !bytes.Equal(p.data, p.snapshot) {
			changed++
		}
	}
	if len(sent) == 0 {
		t.Fatal("no payloads were sent")
	}
	if changed != 0 {
		t.Errorf("%d of %d sent payloads changed after the send", changed, len(sent))
	}
}
