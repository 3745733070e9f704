// Package gateway is the client-facing serving surface of a TOTA node:
// a length-prefixed JSON-over-TCP RPC (Inject / Read / Subscribe /
// Unsubscribe) that multiplexes thousands of lightweight, non-peer
// clients onto one middleware instance. Clients never speak the TOTA
// wire protocol — they hit a gateway, the gateway speaks TOTA — which
// is the "millions of users" deployment shape: users connect to
// gateways, gateways participate in the tuple space.
//
// Subscriptions are compiled onto the engine's event interface
// (core.Node.Subscribe). Every event a gateway observes is assigned a
// monotonic per-gateway sequence number and retained in a bounded
// replay ring, so a reconnecting client can ask for replay-from-seq
// and close the gap it missed; each client connection owns a bounded
// outbound queue with explicit slow-consumer drop accounting, so a
// stalled reader can never wedge the engine's dispatch path and never
// loses events silently.
package gateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"tota/internal/tuple"
)

// MaxFrameBytes bounds one length-prefixed frame in either direction;
// oversized frames are a protocol error and close the connection.
const MaxFrameBytes = 1 << 20

// eventBufBytes sizes both ends' buffers on the gateway → client stream:
// some thirty 450-byte event frames (on gw_fanout 4 KiB cost 10 % more
// CPU, 64 KiB gained nothing). Requests get bufio's default.
const eventBufBytes = 16 << 10

// Request operations.
const (
	OpInject      = "inject"
	OpRead        = "read"
	OpSubscribe   = "subscribe"
	OpUnsubscribe = "unsubscribe"
	OpPing        = "ping"
)

// Replay outcomes reported in a subscribe acknowledgement.
const (
	// ReplayHit: the ring covered (from_seq, now] in the requested
	// epoch; the missed events were queued before any newer ones.
	ReplayHit = "hit"
	// ReplayMiss: the requested continuation is impossible — the epoch
	// changed (gateway restarted) or the ring already evicted part of
	// the range. Whatever the ring still holds was queued, but the
	// client must treat its prior state as unreliable and resync.
	ReplayMiss = "miss"
)

// Request is one client→gateway RPC call, correlated by Seq (a
// client-assigned number echoed on the response).
type Request struct {
	Op  string `json:"op"`
	Seq uint64 `json:"seq"`

	// Inject: the tuple to create, as kind + content. The gateway node
	// assigns the network id.
	Kind    string        `json:"kind,omitempty"`
	Content tuple.Content `json:"content,omitempty"`

	// Read and Subscribe: the query template (MarshalTemplateJSON
	// form). An absent template matches everything.
	Template json.RawMessage `json:"template,omitempty"`

	// Subscribe: resume after the given per-gateway event sequence in
	// the given epoch. FromSeq 0 with an empty epoch is a fresh
	// subscription replaying the whole ring.
	FromSeq uint64 `json:"from_seq,omitempty"`
	Epoch   string `json:"epoch,omitempty"`

	// Unsubscribe: the server-side subscription id to drop.
	Sub uint64 `json:"sub,omitempty"`
}

// Response is the gateway's answer to one Request.
type Response struct {
	Seq uint64 `json:"seq"`
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	// Inject: the assigned tuple id.
	ID string `json:"id,omitempty"`

	// Read: the matching tuples (MarshalTupleJSON documents).
	Tuples []json.RawMessage `json:"tuples,omitempty"`

	// Subscribe: the server-side subscription id, the gateway's epoch
	// (one instance lifetime; changes across restarts), the gateway
	// event sequence at subscribe time, and the replay outcome when
	// FromSeq/Epoch requested a continuation.
	Sub     uint64 `json:"sub,omitempty"`
	Epoch   string `json:"epoch,omitempty"`
	NextSeq uint64 `json:"next_seq,omitempty"`
	Replay  string `json:"replay,omitempty"`
}

// Event is one subscription delivery. GSeq is the per-gateway sequence
// of the underlying engine event — the replay/dedup coordinate, global
// across all subscriptions. DSeq is the per-subscription delivery
// sequence: it counts only events matching the subscription's
// template, starting at 1 on each (re)subscribe. Gap-vs-drop
// verification runs in DSeq space, because a filtered subscription
// legitimately skips GSeq values held by non-matching events. Drops is
// the cumulative number of events this server-side subscription has
// lost to its bounded queue, so a client can verify that any DSeq gap
// it observes is accounted for rather than silent. Tuple is spliced in
// as it is: it must be compact JSON as MarshalTupleJSON writes it.
type Event struct {
	Type   string          `json:"ev"`
	Sub    uint64          `json:"sub"`
	GSeq   uint64          `json:"gseq"`
	DSeq   uint64          `json:"dseq,omitempty"`
	Drops  uint64          `json:"drops,omitempty"`
	Peer   string          `json:"peer,omitempty"`
	Tuple  json.RawMessage `json:"tuple,omitempty"`
	Replay bool            `json:"replay,omitempty"`
}

// Frame is one gateway→client message: exactly one of Resp or Event is
// set, so the client can demux responses from asynchronous deliveries.
type Frame struct {
	Resp  *Response `json:"resp,omitempty"`
	Event *Event    `json:"event,omitempty"`
}

// ErrFrameTooLarge reports a frame over MaxFrameBytes in either
// direction.
var ErrFrameTooLarge = errors.New("gateway: frame exceeds size bound")

// EncodeFrame renders v as one length-prefixed JSON frame: a 4-byte
// big-endian payload length followed by the payload. An event frame, an
// inject request and an inject's response frame are rendered by hand
// (encodeEvent, encodeRequest, encodeResponse), with the bytes
// json.Marshal would write; json.Marshal renders everything else.
func EncodeFrame(v any) ([]byte, error) {
	switch f := v.(type) {
	case Frame:
		if f.Event != nil && f.Resp == nil {
			return encodeEvent(f.Event, nil)
		}
		if f.Resp != nil && f.Event == nil {
			if buf, ok := encodeResponse(f.Resp); ok {
				return buf, nil
			}
		}
	case Request:
		if buf, ok := encodeRequest(&f); ok {
			return buf, nil
		}
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return framed(body)
}

// framed returns body behind its length prefix, in one exactly sized
// allocation.
func framed(body []byte) ([]byte, error) {
	if len(body) > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	return buf, nil
}

// encodeRequest renders a request that carries nothing but op, seq, kind
// and content — every inject, and a ping — as
//
//	{"op":O,"seq":S[,"kind":K][,"content":[…]]}
//
// false means r carries more, or something json.Marshal would refuse.
func encodeRequest(r *Request) ([]byte, bool) {
	if len(r.Template) != 0 || r.FromSeq != 0 || r.Epoch != "" || r.Sub != 0 {
		return nil, false
	}
	var stack [512]byte // fits a route3 message; a bigger content grows it
	b := tuple.AppendJSONString(append(stack[:0], `{"op":`...), r.Op)
	b = strconv.AppendUint(append(b, `,"seq":`...), r.Seq, 10)
	if r.Kind != "" {
		b = tuple.AppendJSONString(append(b, `,"kind":`...), r.Kind)
	}
	if len(r.Content) > 0 {
		var err error
		if b, err = tuple.AppendContentJSON(append(b, `,"content":`...), r.Content); err != nil {
			return nil, false
		}
	}
	buf, err := framed(append(b, '}'))
	return buf, err == nil
}

// encodeResponse renders a response frame whose response carries nothing
// but seq, ok, err and id — an inject's, or any error — as
//
//	{"resp":{"seq":S,"ok":B[,"err":E][,"id":I]}}
//
// false means r carries more.
func encodeResponse(r *Response) ([]byte, bool) {
	if len(r.Tuples) != 0 || r.Sub != 0 || r.Epoch != "" || r.NextSeq != 0 || r.Replay != "" {
		return nil, false
	}
	var stack [192]byte
	b := strconv.AppendUint(append(stack[:0], `{"resp":{"seq":`...), r.Seq, 10)
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	if r.Err != "" {
		b = tuple.AppendJSONString(append(b, `,"err":`...), r.Err)
	}
	if r.ID != "" {
		b = tuple.AppendJSONString(append(b, `,"id":`...), r.ID)
	}
	buf, err := framed(append(b, "}}"...))
	return buf, err == nil
}

// Two adjacent members of an event frame do not depend on the
// subscription, ,"peer":P and ,"tuple":T, each omitted when empty: the
// gateway renders them once per event and splices them into every frame.
const tupleMember = `,"tuple":`

func appendEventPeer(dst []byte, peer string) []byte {
	if peer == "" {
		return dst
	}
	return tuple.AppendJSONString(append(dst, `,"peer":`...), peer)
}

// encodeEvent renders one event frame in a single exactly sized
// allocation. shared, when not nil, is the event's peer and tuple
// members already rendered, and ev.Peer and ev.Tuple are not looked at.
func encodeEvent(ev *Event, shared []byte) ([]byte, error) {
	var stack [192]byte // fits every header but one with a very long peer
	h := tuple.AppendJSONString(append(stack[:0], `{"event":{"ev":`...), ev.Type)
	h = strconv.AppendUint(append(h, `,"sub":`...), ev.Sub, 10)
	h = strconv.AppendUint(append(h, `,"gseq":`...), ev.GSeq, 10)
	if ev.DSeq != 0 {
		h = strconv.AppendUint(append(h, `,"dseq":`...), ev.DSeq, 10)
	}
	if ev.Drops != 0 {
		h = strconv.AppendUint(append(h, `,"drops":`...), ev.Drops, 10)
	}
	if shared == nil {
		h = appendEventPeer(h, ev.Peer)
		if len(ev.Tuple) > 0 {
			h = append(h, tupleMember...)
			shared = ev.Tuple
		}
	}
	tail := "}}"
	if ev.Replay {
		tail = `,"replay":true}}`
	}
	n := len(h) + len(shared) + len(tail)
	if n > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, 4+n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	copy(buf[4+copy(buf[4:], h):], shared)
	copy(buf[4+n-len(tail):], tail)
	return buf, nil
}

// WriteFrame encodes v and writes the frame to w.
func WriteFrame(w io.Writer, v any) error {
	buf, err := EncodeFrame(v)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readFrameBody reads one frame's payload, into scratch if it fits (valid
// until scratch is reused). Oversized prefixes fail before any allocation.
func readFrameBody(br *bufio.Reader, scratch []byte) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	_, _ = br.Discard(4) // cannot fail: Peek buffered them
	if n > len(scratch) {
		scratch = make([]byte, n)
	}
	if _, err := io.ReadFull(br, scratch[:n]); err != nil {
		return nil, fmt.Errorf("gateway: truncated frame: %w", err)
	}
	return scratch[:n], nil
}

// frameScan is the one-pass decoders' cursor. Each read names the literal
// its member starts with; a required one missing, or a bad value, sets bad.
type frameScan struct {
	b   []byte // what is left
	bad bool
}

// eat consumes lit if it comes next.
func (s *frameScan) eat(lit string, required bool) bool {
	if s.bad || !bytes.HasPrefix(s.b, []byte(lit)) {
		s.bad = s.bad || required
		return false
	}
	s.b = s.b[len(lit):]
	return true
}

// uint reads a number as encoding/json accepts one for a uint64.
func (s *frameScan) uint(key string, required bool) uint64 {
	if !s.eat(key, required) {
		return 0
	}
	i := 0
	for i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9' {
		i++
	}
	v, err := strconv.ParseUint(string(s.b[:i]), 10, 64)
	s.bad = err != nil || (i > 1 && s.b[0] == '0')
	s.b = s.b[i:]
	return v
}

// str reads a string literal that is ASCII without escapes.
func (s *frameScan) str(key string, required bool) string {
	if !s.eat(key, required) || !s.eat(`"`, true) {
		return ""
	}
	for i, c := range s.b {
		if c == '"' {
			v := string(s.b[:i])
			s.b = s.b[i+1:]
			return v
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			break
		}
	}
	s.bad = true
	return ""
}

// decodeEvent decodes a payload of exactly the layout encodeEvent writes,
// tuple included, in one pass; ev.Tuple is a view into body. !ok means it
// is anything else (a response, an escape, a tuple the registry refuses,
// garbage) and json.Unmarshal has the verdict; ok, that it would agree.
func decodeEvent(r *tuple.Registry, body []byte) (ev Event, t tuple.Tuple, ok bool) {
	s := frameScan{b: body}
	ev.Type = s.str(`{"event":{"ev":`, true)
	ev.Sub = s.uint(`,"sub":`, true)
	ev.GSeq = s.uint(`,"gseq":`, true)
	ev.DSeq = s.uint(`,"dseq":`, false)
	ev.Drops = s.uint(`,"drops":`, false)
	ev.Peer = s.str(`,"peer":`, false)
	if s.eat(tupleMember, false) {
		tup, n, err := tuple.ScanTupleJSON(r, s.b)
		t, s.bad = tup, err != nil || s.b[0] != '{' // json keeps no leading space
		ev.Tuple, s.b = s.b[:n], s.b[n:]
	}
	ev.Replay = s.eat(`,"replay":true`, false)
	if s.eat("}}", true); s.bad || len(s.b) != 0 {
		return Event{}, nil, false
	}
	return ev, t, true
}

// decodeRequest decodes a payload of exactly the layout encodeRequest
// writes, content included, in one pass. !ok means it is anything else
// and json.Unmarshal has the verdict; ok, that it would agree.
func decodeRequest(body []byte) (r Request, ok bool) {
	s := frameScan{b: body}
	r.Op = s.str(`{"op":`, true)
	r.Seq = s.uint(`,"seq":`, true)
	r.Kind = s.str(`,"kind":`, false)
	if s.eat(`,"content":`, false) {
		c, n, err := tuple.ScanContentJSON(s.b)
		r.Content, s.bad = c, err != nil || s.b[0] != '[' // a leading space or null is json.Unmarshal's
		s.b = s.b[n:]
	}
	if s.eat("}", true); s.bad || len(s.b) != 0 {
		return Request{}, false
	}
	return r, true
}

// decodeResponse decodes a payload of exactly the layout encodeResponse
// writes. !ok means it is anything else (an event, an escape, a subscribe
// or read answer, garbage) and json.Unmarshal has the verdict.
func decodeResponse(body []byte) (r Response, ok bool) {
	s := frameScan{b: body}
	r.Seq = s.uint(`{"resp":{"seq":`, true)
	if r.OK = s.eat(`,"ok":true`, false); !r.OK {
		s.eat(`,"ok":false`, true)
	}
	r.Err = s.str(`,"err":`, false)
	r.ID = s.str(`,"id":`, false)
	if s.eat("}}", true); s.bad || len(s.b) != 0 {
		return Response{}, false
	}
	return r, true
}

// decodeTemplate resolves a request's template field; absent means
// match-all.
func decodeTemplate(raw json.RawMessage) (tuple.Template, error) {
	if len(raw) == 0 {
		return tuple.MatchAll(), nil
	}
	return tuple.UnmarshalTemplateJSON(raw)
}
