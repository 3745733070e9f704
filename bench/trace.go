package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"tota/internal/transport"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// span is one traced interval at a layer boundary. Spans of one
// operation share Trace (the operation's sequence number); Parent is
// the index of the span that caused this one, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	Trace   int64  `json:"trace"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Span names.
const (
	spanOp     = "client.op"   // client inject call → client event receipt
	spanSend   = "udp.send"    // one Broadcast or Send on the UDP transport
	spanHandle = "core.handle" // one HandlePacket, nested sends included
)

const (
	noTrace = int64(-1) // trace id of work outside any operation (refresh)
	noSpan  = -1        // parent of a root span
)

// tracer collects spans in memory. The traced run keeps one operation
// in flight, so a span belongs to the operation that is open when it
// starts, and cause follows from who was doing what: a send is caused
// by the handler open on its node (else by the client operation), a
// handler by the last send of the node the packet came from. The shims
// therefore never decode a frame.
type tracer struct {
	mu         sync.Mutex
	spans      []span
	curTrace   int64          // operation in flight, noTrace between operations
	curRoot    int            // its client.op span
	openHandle map[string]int // node → its open core.handle span
	lastSend   map[string]int // node → its most recent udp.send span
	payloads   [][]byte       // copies of the first probePayloads engine packets sent inside operations
}

func newTracer() *tracer {
	return &tracer{curTrace: noTrace, curRoot: noSpan, openHandle: map[string]int{}, lastSend: map[string]int{}}
}

// beginOp opens the client.op span of operation seq.
func (t *tracer) beginOp(seq int64, at time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: spanOp, Trace: seq, Parent: noSpan, StartNS: int64(at)})
	t.curTrace, t.curRoot = seq, len(t.spans)-1
	t.mu.Unlock()
}

// endOp closes the operation at the client's receipt time.
func (t *tracer) endOp(at time.Duration) {
	t.mu.Lock()
	if t.curRoot != noSpan {
		t.spans[t.curRoot].EndNS = int64(at)
	}
	t.curTrace, t.curRoot = noTrace, noSpan
	t.mu.Unlock()
}

func (t *tracer) beginSend(node string, data []byte, at time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.curTrace != noTrace && len(t.payloads) < probePayloads {
		t.payloads = append(t.payloads, append([]byte(nil), data...))
	}
	parent, ok := t.openHandle[node]
	if !ok {
		parent = t.curRoot
	}
	t.spans = append(t.spans, span{Name: spanSend, Node: node, Trace: t.curTrace, Parent: parent, StartNS: int64(at)})
	i := len(t.spans) - 1
	t.lastSend[node] = i
	return i
}

func (t *tracer) beginHandle(node, from string, at time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.lastSend[from]
	if !ok {
		parent = noSpan
	}
	t.spans = append(t.spans, span{Name: spanHandle, Node: node, Trace: t.curTrace, Parent: parent, StartNS: int64(at)})
	i := len(t.spans) - 1
	t.openHandle[node] = i
	return i
}

func (t *tracer) end(i int, at time.Duration) {
	t.mu.Lock()
	t.spans[i].EndNS = int64(at)
	if t.spans[i].Name == spanHandle {
		delete(t.openHandle, t.spans[i].Node)
	}
	t.mu.Unlock()
}

// tracedSender embeds the UDP transport so that FrameLimiter and
// PayloadReleaser stay promoted: the engine sees the same optional
// interfaces and behaves the same, with spans around the two send calls.
type tracedSender struct {
	*udp.Transport
	tc   *tracer
	node string
}

func (s *tracedSender) Broadcast(data []byte) error {
	i := s.tc.beginSend(s.node, data, now())
	err := s.Transport.Broadcast(data)
	s.tc.end(i, now())
	return err
}

func (s *tracedSender) Send(to tuple.NodeID, data []byte) error {
	i := s.tc.beginSend(s.node, data, now())
	err := s.Transport.Send(to, data)
	s.tc.end(i, now())
	return err
}

// tracedHandler wraps the engine's incoming half.
type tracedHandler struct {
	next transport.Handler
	tc   *tracer
	node string
}

func (h *tracedHandler) HandlePacket(from tuple.NodeID, data []byte) {
	i := h.tc.beginHandle(h.node, string(from), now())
	h.next.HandlePacket(from, data)
	h.tc.end(i, now())
}

func (h *tracedHandler) HandleNeighbor(peer tuple.NodeID, added bool) {
	h.next.HandleNeighbor(peer, added)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// waterfall is the per-layer tiling of one route3 operation, from
// client inject call to client event receipt. Each row is the median
// over operations; the rows of one operation telescope to its
// end-to-end time exactly, so the medians should sum to the median
// end-to-end time within 10 %.
type waterfall struct {
	ingressUS, udpSendUS, hopGapUS, relayHandleUS, destToClientUS float64
	e2eUS                                                         float64
	handleSelfUS, sendUS, gapUS                                   []float64 // per span, all nodes
	ops                                                           int
}

// sumOverE2E is Σ rows ÷ end-to-end median.
func (w waterfall) sumOverE2E() float64 {
	if w.e2eUS == 0 {
		return 0
	}
	return (w.ingressUS + w.udpSendUS + w.hopGapUS + w.relayHandleUS + w.destToClientUS) / w.e2eUS
}

// routeWaterfall tiles every complete operation of a traced route3 run:
// n0 sends, n1 handles and relays, n2 handles and the client receives.
func (t *tracer) routeWaterfall(first, relay, dest string) waterfall {
	t.mu.Lock()
	defer t.mu.Unlock()
	type op struct {
		root, send0, handle1, send1, handle2 *span
	}
	ops := map[int64]*op{}
	var w waterfall
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case spanSend:
			w.sendUS = append(w.sendUS, float64(s.EndNS-s.StartNS)/1e3)
		case spanHandle:
			self := s.EndNS - s.StartNS
			for j := i + 1; j < len(t.spans) && t.spans[j].StartNS < s.EndNS; j++ {
				if c := &t.spans[j]; c.Parent == i && c.Name == spanSend {
					self -= c.EndNS - c.StartNS
				}
			}
			w.handleSelfUS = append(w.handleSelfUS, float64(self)/1e3)
			if s.Parent != noSpan {
				w.gapUS = append(w.gapUS, float64(s.StartNS-t.spans[s.Parent].EndNS)/1e3)
			}
		}
		if s.Trace == noTrace {
			continue
		}
		o := ops[s.Trace]
		if o == nil {
			o = &op{}
			ops[s.Trace] = o
		}
		switch {
		case s.Name == spanOp:
			o.root = s
		case s.Name == spanSend && s.Node == first && o.send0 == nil:
			o.send0 = s
		case s.Name == spanHandle && s.Node == relay && o.handle1 == nil:
			o.handle1 = s
		case s.Name == spanSend && s.Node == relay && o.send1 == nil:
			o.send1 = s
		case s.Name == spanHandle && s.Node == dest && o.handle2 == nil:
			o.handle2 = s
		}
	}
	var ingress, send, gap, relayH, destC, e2e []float64
	for _, o := range ops {
		if o.root == nil || o.root.EndNS == 0 || o.send0 == nil || o.handle1 == nil || o.send1 == nil || o.handle2 == nil {
			continue
		}
		ingress = append(ingress, float64(o.send0.StartNS-o.root.StartNS)/1e3)
		send = append(send, float64((o.send0.EndNS-o.send0.StartNS)+(o.send1.EndNS-o.send1.StartNS))/1e3)
		gap = append(gap, float64((o.handle1.StartNS-o.send0.EndNS)+(o.handle2.StartNS-o.send1.EndNS))/1e3)
		relayH = append(relayH, float64(o.send1.StartNS-o.handle1.StartNS)/1e3)
		destC = append(destC, float64(o.root.EndNS-o.handle2.StartNS)/1e3)
		e2e = append(e2e, float64(o.root.EndNS-o.root.StartNS)/1e3)
	}
	w.ops = len(e2e)
	if w.ops == 0 {
		return w
	}
	w.ingressUS, w.udpSendUS, w.hopGapUS = median(ingress), median(send), median(gap)
	w.relayHandleUS, w.destToClientUS, w.e2eUS = median(relayH), median(destC), median(e2e)
	return w
}
