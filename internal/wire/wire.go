// Package wire frames the middleware-level messages TOTA nodes exchange
// over a transport: tuple propagation/announcement packets, structure
// retraction packets, anti-entropy digests, and multi-message batch
// frames. The framing is transport-agnostic; the simulated radio and
// the UDP transport both carry these byte payloads verbatim.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"tota/internal/agg"
	"tota/internal/tuple"
)

// MsgType discriminates engine packets.
type MsgType uint8

// Engine packet types.
const (
	// MsgTuple carries a tuple copy being propagated or announced; the
	// receiver applies the tuple's propagation rule.
	MsgTuple MsgType = iota + 1
	// MsgRetract withdraws a distributed structure by id: the deletion
	// analogue of propagation, flooding outward from the source.
	MsgRetract
	// MsgWithdraw announces that the sender no longer holds a local copy
	// of the identified maintained tuple; one-hop only, it triggers the
	// neighbors' maintenance checks.
	MsgWithdraw
	// MsgDigest is the anti-entropy summary: instead of re-broadcasting
	// full tuple bytes every refresh epoch, a node advertises compact
	// (id, version) entries — plus value and parent for maintained
	// structures, so the support tables refresh from the digest alone.
	// Receivers pull full bytes only for entries they are missing.
	MsgDigest
	// MsgPull requests full announcements for the listed tuple ids — the
	// anti-entropy pull a receiver issues for digest entries it cannot
	// reconstruct locally.
	MsgPull
	// MsgBatch is a container frame: N independently encoded messages
	// coalesced into one transport packet. Batches must not nest.
	MsgBatch
	// 7 stays unassigned: older binaries sent an aggregation epoch wave
	// under it, which must decode as ErrType.
	_
	// MsgPartial carries one convergecast partial aggregate up a query
	// structure's parent link. In combining mode Origin is zero and the
	// partial summarizes the sender's whole subtree; in collect-all mode
	// one frame travels per original record, keyed by Origin.
	MsgPartial
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgTuple:
		return "tuple"
	case MsgRetract:
		return "retract"
	case MsgWithdraw:
		return "withdraw"
	case MsgDigest:
		return "digest"
	case MsgPull:
		return "pull"
	case MsgBatch:
		return "batch"
	case MsgPartial:
		return "partial"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// DigestEntry is one advertised tuple in a MsgDigest: the id plus the
// sender's announcement version for it. For maintained structures the
// entry also carries the sender's current value and parent, which is
// everything a neighbor's maintenance check consumes — full tuple bytes
// travel only on demand (MsgPull).
type DigestEntry struct {
	ID  tuple.ID
	Ver uint32
	Hop uint16
	// Maintained marks entries for self-maintained structures, which
	// carry Value and Parent inline.
	Maintained bool
	Value      float64
	Parent     tuple.NodeID
}

// TraceCtx is the optional causal trace context piggybacked on MsgTuple
// announcements. TraceID identifies the sampled tuple's end-to-end trace
// (zero means the tuple is not sampled and the context is absent from
// the wire); Span identifies the sender's current copy incarnation, so
// the receiver can link its own store/adopt decision to the exact
// upstream hop that caused it. The context is 16 bytes, fixed-size, and
// only present on traced frames — untraced frames are byte-identical to
// the version-1 encoding.
type TraceCtx struct {
	TraceID uint64
	Span    uint64
}

// TraceCtxSize is the encoded size of a trace context on a traced
// MsgTuple frame.
const TraceCtxSize = 16

// Message is one engine packet.
type Message struct {
	Type MsgType
	// Hop is the number of hops this copy has traveled from its source
	// (meaningful for MsgTuple).
	Hop uint16
	// Parent is the neighbor the sender's copy was adopted from, for
	// maintained-structure announcements; receivers apply poisoned
	// reverse (they never count a neighbor whose parent is themselves as
	// support). Empty for source announcements and plain tuples.
	Parent tuple.NodeID
	// Tuple is the carried tuple (MsgTuple only). DecodeInto leaves it
	// nil: Env describes it and Raw, aliasing the frame, encodes it.
	Tuple tuple.Tuple
	Env   tuple.Envelope
	Raw   []byte
	// ID identifies the structure involved (MsgRetract and MsgWithdraw).
	ID tuple.ID
	// Ver is the sender's announcement version for the carried tuple
	// (MsgTuple): a per-sender counter bumped whenever the stored copy,
	// its hop, or its parent changes. Receivers remember the last
	// version heard per neighbor so digest entries with a matching
	// version suppress redundant re-sends.
	Ver uint32
	// Digest lists the sender's stored announcements (MsgDigest).
	Digest []DigestEntry
	// Want lists the tuple ids whose full bytes the sender requests
	// (MsgPull).
	Want []tuple.ID
	// Batch holds the decoded sub-messages of a batch frame (MsgBatch).
	Batch []Message
	// Origin identifies the source record a collect-all partial reports
	// (MsgPartial); zero in combining mode.
	Origin tuple.ID
	// Partial is the carried partial aggregate (MsgPartial).
	Partial agg.Partial
	// Trace is the causal trace context of a sampled tuple (MsgTuple
	// only). A zero TraceID means unsampled: the frame encodes as
	// version 1 with no trace bytes.
	Trace TraceCtx
}

// Frame versions. Version 1 is the untraced baseline; version 2 frames
// carry a 16-byte TraceCtx between the announcement version and the
// tuple bytes of a MsgTuple body. Encoders emit version 2 only when a
// trace context is present, so disabling sampling reproduces version-1
// bytes exactly; decoders accept both.
const (
	wireVersion       = 1
	wireVersionTraced = 2
)

// Hard decode bounds: a frame claiming more than these is rejected
// before any allocation is sized from attacker-controlled counts.
const (
	// MaxBatchMessages bounds the sub-messages in one batch frame.
	MaxBatchMessages = 512
	// MaxDigestEntries bounds the entries in one digest message.
	MaxDigestEntries = 8192
	// MaxPullIDs bounds the ids in one pull request.
	MaxPullIDs = 8192
	// MaxSketchWords bounds the claimed distinct-sketch length in a
	// partial message. The codec only accepts agg.SketchWords exactly,
	// but the claimed count is bounds-checked up here first so a hostile
	// length can never size an allocation or a slice walk.
	MaxSketchWords = 1024
)

// Wire errors.
var (
	ErrShort       = errors.New("wire: short message")
	ErrVersion     = errors.New("wire: unsupported version")
	ErrType        = errors.New("wire: unknown message type")
	ErrTooLarge    = errors.New("wire: frame exceeds decode bounds")
	ErrNestedBatch = errors.New("wire: nested batch frame")
	ErrChecksum    = errors.New("wire: checksum mismatch")
	ErrSketchSize  = errors.New("wire: unsupported sketch size")
)

// ChecksumSize is the length of the CRC trailer every encoded message
// carries. The trailer makes frames tamper-evident: radio-level bit
// flips are rejected at decode instead of being believed — without it,
// a flipped bit in a maintained structure's value field can poison the
// distance-vector maintenance into an unbounded count-to-infinity climb.
const ChecksumSize = 4

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal appends the CRC trailer over everything encoded so far. Every
// Encode return path (including batch sub-messages) seals its frame.
func seal(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// Batch frame layout constants, exported so the engine can pack frames
// against a transport's payload budget without trial encodes.
const (
	headerSize = 2 + 2 + 4 // version, type, hop, parent length (empty parent)
	// BatchOverhead is the fixed cost of a batch frame: the shared
	// header, the sub-message count, and the frame's checksum trailer.
	BatchOverhead = headerSize + 4 + ChecksumSize
	// BatchPerMessage is the additional cost of each coalesced message
	// (its length prefix). Sub-messages carry their own trailers, already
	// counted in their encoded length.
	BatchPerMessage = 4
	// DigestOverhead is the fixed cost of a digest message with an empty
	// parent (header, entry count, checksum trailer); per-entry costs
	// come from DigestEntrySize.
	DigestOverhead = headerSize + 4 + ChecksumSize
	// PullOverhead is the fixed cost of a pull message with an empty
	// parent (header, id count, checksum trailer); per-id costs come
	// from PullIDSize.
	PullOverhead = headerSize + 4 + ChecksumSize
)

// PullIDSize returns the encoded size of one pull-request id, for
// packing pulls against a frame payload budget.
func PullIDSize(id tuple.ID) int { return 2 + len(id.Node) + 8 }

// Encode serializes a message. The buffer is preallocated to the exact
// message size, so the whole packet is built with one allocation and no
// re-copies — the per-packet hot path of every broadcast, refresh, and
// announcement. A carried tuple's content is built once: the size
// (tuple.EncodedSize) and the bytes (tuple.AppendEncode) come from the
// same slice.
func Encode(m Message) ([]byte, error) {
	header := headerSize + len(m.Parent)
	switch m.Type {
	case MsgTuple:
		if m.Tuple == nil {
			return nil, errors.New("wire: MsgTuple without tuple")
		}
		traced := m.Trace.TraceID != 0
		c := m.Tuple.Content()
		size := header + 4 + tuple.EncodedSize(m.Tuple, c) + ChecksumSize
		ver := byte(wireVersion)
		if traced {
			size += TraceCtxSize
			ver = wireVersionTraced
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, ver, m)
		b = binary.BigEndian.AppendUint32(b, m.Ver)
		if traced {
			b = binary.BigEndian.AppendUint64(b, m.Trace.TraceID)
			b = binary.BigEndian.AppendUint64(b, m.Trace.Span)
		}
		b, err := tuple.AppendEncode(b, m.Tuple, c)
		if err != nil {
			return nil, fmt.Errorf("wire: encode tuple: %w", err)
		}
		return seal(b), nil
	case MsgRetract, MsgWithdraw:
		id := m.ID.String()
		b := make([]byte, 0, header+4+len(id)+ChecksumSize)
		b = appendHeader(b, wireVersion, m)
		b = binary.BigEndian.AppendUint32(b, uint32(len(id)))
		return seal(append(b, id...)), nil
	case MsgDigest:
		if len(m.Digest) > MaxDigestEntries {
			return nil, fmt.Errorf("%w: %d digest entries", ErrTooLarge, len(m.Digest))
		}
		size := header + 4 + ChecksumSize
		for i := range m.Digest {
			e := &m.Digest[i]
			if len(e.ID.Node) > math.MaxUint16 || len(e.Parent) > math.MaxUint16 {
				return nil, fmt.Errorf("%w: digest entry id or parent over %d bytes", ErrTooLarge, math.MaxUint16)
			}
			size += digestEntrySize(e)
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, wireVersion, m)
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.Digest)))
		for i := range m.Digest {
			b = appendDigestEntry(b, &m.Digest[i])
		}
		return seal(b), nil
	case MsgPull:
		if len(m.Want) > MaxPullIDs {
			return nil, fmt.Errorf("%w: %d pull ids", ErrTooLarge, len(m.Want))
		}
		size := header + 4 + ChecksumSize
		for _, id := range m.Want {
			if len(id.Node) > math.MaxUint16 {
				return nil, fmt.Errorf("%w: pull id node over %d bytes", ErrTooLarge, math.MaxUint16)
			}
			size += 2 + len(id.Node) + 8
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, wireVersion, m)
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.Want)))
		for _, id := range m.Want {
			b = appendID(b, id)
		}
		return seal(b), nil
	case MsgPartial:
		if len(m.ID.Node) > math.MaxUint16 || len(m.Origin.Node) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: partial id node over %d bytes", ErrTooLarge, math.MaxUint16)
		}
		size := header + 2 + len(m.ID.Node) + 8 + 2 + len(m.Origin.Node) + 8 + 1 + 8 + 3*8 + ChecksumSize
		if m.Partial.HasSketch {
			size += 2 + agg.SketchWords*8
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, wireVersion, m)
		b = appendID(b, m.ID)
		b = appendID(b, m.Origin)
		flags := byte(0)
		if m.Partial.HasSketch {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Partial.Count))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Partial.Sum))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Partial.Min))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Partial.Max))
		if m.Partial.HasSketch {
			b = binary.BigEndian.AppendUint16(b, agg.SketchWords)
			for _, w := range m.Partial.Sketch.W {
				b = binary.BigEndian.AppendUint64(b, w)
			}
		}
		return seal(b), nil
	case MsgBatch:
		subs := make([][]byte, 0, len(m.Batch))
		for i := range m.Batch {
			if m.Batch[i].Type == MsgBatch {
				return nil, ErrNestedBatch
			}
			sub, err := Encode(m.Batch[i])
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		return EncodeBatch(subs)
	default:
		return nil, fmt.Errorf("%w: %d", ErrType, m.Type)
	}
}

// DigestEntrySize returns the encoded size of a digest entry, for
// packing digests against a frame payload budget.
func DigestEntrySize(e *DigestEntry) int { return digestEntrySize(e) }

func digestEntrySize(e *DigestEntry) int {
	size := 1 + 2 + len(e.ID.Node) + 8 + 4 + 2
	if e.Maintained {
		size += 8 + 2 + len(e.Parent)
	}
	return size
}

func appendDigestEntry(b []byte, e *DigestEntry) []byte {
	flags := byte(0)
	if e.Maintained {
		flags |= 1
	}
	b = append(b, flags)
	b = appendID(b, e.ID)
	b = binary.BigEndian.AppendUint32(b, e.Ver)
	b = binary.BigEndian.AppendUint16(b, e.Hop)
	if e.Maintained {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.Value))
		b = binary.BigEndian.AppendUint16(b, uint16(len(e.Parent)))
		b = append(b, e.Parent...)
	}
	return b
}

// appendID encodes a tuple id as (node length, node, seq) — more
// compact and alloc-free to decode compared to the "node#seq" string
// form used by the retract/withdraw bodies. Encode validates that the
// node name fits the uint16 length prefix before any entry is appended.
func appendID(b []byte, id tuple.ID) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(id.Node)))
	b = append(b, id.Node...)
	return binary.BigEndian.AppendUint64(b, id.Seq)
}

// EncodeBatch coalesces independently encoded messages into one batch
// frame. The sub-message byte slices are copied, never aliased, so
// cached announcement encodings can be packed directly.
func EncodeBatch(msgs [][]byte) ([]byte, error) {
	if len(msgs) == 0 {
		return nil, errors.New("wire: empty batch")
	}
	if len(msgs) > MaxBatchMessages {
		return nil, fmt.Errorf("%w: %d batched messages", ErrTooLarge, len(msgs))
	}
	size := BatchOverhead
	for _, msg := range msgs {
		if len(msg) >= 2 && MsgType(msg[1]) == MsgBatch {
			return nil, ErrNestedBatch
		}
		size += BatchPerMessage + len(msg)
	}
	b := make([]byte, 0, size)
	b = appendHeader(b, wireVersion, Message{Type: MsgBatch})
	b = binary.BigEndian.AppendUint32(b, uint32(len(msgs)))
	for _, msg := range msgs {
		b = binary.BigEndian.AppendUint32(b, uint32(len(msg)))
		b = append(b, msg...)
	}
	return seal(b), nil
}

func appendHeader(b []byte, ver byte, m Message) []byte {
	b = append(b, ver, byte(m.Type))
	b = binary.BigEndian.AppendUint16(b, m.Hop)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Parent)))
	return append(b, m.Parent...)
}

// Decode parses a message, using the registry to rebuild carried tuples.
func Decode(reg *tuple.Registry, data []byte) (Message, error) {
	var m Message
	if err := DecodeInto(reg, data, &m); err != nil {
		return Message{}, err
	}
	if err := buildTuples(reg, &m); err != nil {
		return Message{}, fmt.Errorf("wire: decode tuple: %w", err)
	}
	return m, nil
}

// buildTuples builds m's carried tuples, its own or its batch's.
func buildTuples(reg *tuple.Registry, m *Message) (err error) {
	if m.Type == MsgTuple {
		m.Tuple, err = tuple.Decode(reg, m.Raw)
	}
	for i := 0; err == nil && i < len(m.Batch); i++ {
		err = buildTuples(reg, &m.Batch[i])
	}
	return err
}

// DecodeInto parses like Decode but builds no carried tuple: a MsgTuple
// comes back with Env and Raw, its bytes checked as tuple.Decode checks
// them. It also reuses the capacity of m's slice fields (Digest, Want,
// Batch) across calls — the engine's per-node decode scratch, which
// makes steady-state deliveries allocation-free. *m is overwritten
// entirely. Ids and interned node names stay valid after the next
// DecodeInto call; slice headers are recycled, and Raw aliases data.
func DecodeInto(reg *tuple.Registry, data []byte, m *Message) error {
	return decodeInto(reg, data, m, false)
}

func decodeInto(reg *tuple.Registry, data []byte, m *Message, inBatch bool) error {
	digest, want, batch := m.Digest[:0], m.Want[:0], m.Batch[:0]
	*m = Message{Digest: digest, Want: want, Batch: batch}
	// The CRC trailer is verified before any field is believed: a frame
	// that does not authenticate is rejected wholesale, so radio bit
	// flips surface as decode errors instead of poisoned protocol state.
	if len(data) < 4+ChecksumSize {
		return ErrShort
	}
	sealed, trailer := data[:len(data)-ChecksumSize], data[len(data)-ChecksumSize:]
	if crc32.Checksum(sealed, castagnoli) != binary.BigEndian.Uint32(trailer) {
		return ErrChecksum
	}
	data = sealed
	ver := data[0]
	if ver != wireVersion && ver != wireVersionTraced {
		return fmt.Errorf("%w: %d", ErrVersion, ver)
	}
	m.Type = MsgType(data[1])
	m.Hop = binary.BigEndian.Uint16(data[2:4])
	body := data[4:]
	if len(body) < 4 {
		return ErrShort
	}
	// Length fields are compared in 64-bit space: on 32-bit platforms a
	// hostile 4-byte length would otherwise convert to a negative int or
	// overflow the bounds arithmetic.
	pn64 := int64(binary.BigEndian.Uint32(body[:4]))
	if int64(len(body)) < 4+pn64 {
		return ErrShort
	}
	pn := int(pn64)
	m.Parent = tuple.NodeID(reg.Intern(body[4 : 4+pn]))
	body = body[4+pn:]
	switch m.Type {
	case MsgTuple:
		if len(body) < 4 {
			return ErrShort
		}
		m.Ver = binary.BigEndian.Uint32(body[:4])
		body = body[4:]
		if ver == wireVersionTraced {
			if len(body) < TraceCtxSize {
				return ErrShort
			}
			m.Trace.TraceID = binary.BigEndian.Uint64(body[:8])
			m.Trace.Span = binary.BigEndian.Uint64(body[8:16])
			body = body[TraceCtxSize:]
		}
		env, err := tuple.ReadEnvelope(reg, body)
		if err != nil {
			return fmt.Errorf("wire: decode tuple: %w", err)
		}
		m.Env, m.Raw = env, body
	case MsgRetract, MsgWithdraw:
		if len(body) < 4 {
			return ErrShort
		}
		n64 := int64(binary.BigEndian.Uint32(body[:4]))
		if int64(len(body)) < 4+n64 {
			return ErrShort
		}
		n := int(n64)
		id, err := reg.ParseID(body[4 : 4+n])
		if err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		m.ID = id
	case MsgDigest:
		return decodeDigest(reg, body, m)
	case MsgPull:
		return decodePull(reg, body, m)
	case MsgPartial:
		return decodePartial(reg, body, m)
	case MsgBatch:
		if inBatch {
			return ErrNestedBatch
		}
		return decodeBatch(reg, body, m)
	default:
		return fmt.Errorf("%w: %d", ErrType, m.Type)
	}
	return nil
}

func decodeDigest(reg *tuple.Registry, body []byte, m *Message) error {
	if len(body) < 4 {
		return ErrShort
	}
	// Bound the count while it is still unsigned: on 32-bit platforms
	// int(uint32) can go negative and slip past a signed upper bound.
	count32 := binary.BigEndian.Uint32(body[:4])
	body = body[4:]
	if count32 > MaxDigestEntries {
		return fmt.Errorf("%w: %d digest entries", ErrTooLarge, count32)
	}
	count := int(count32)
	// Minimal entry size bounds the claimed count before any append
	// grows the scratch slice.
	const minEntry = 1 + 2 + 8 + 4 + 2
	if count*minEntry > len(body) {
		return ErrShort
	}
	for i := 0; i < count; i++ {
		var e DigestEntry
		if len(body) < 1 {
			return ErrShort
		}
		flags := body[0]
		e.Maintained = flags&1 != 0
		body = body[1:]
		var err error
		if e.ID, body, err = takeID(reg, body); err != nil {
			return err
		}
		if len(body) < 4+2 {
			return ErrShort
		}
		e.Ver = binary.BigEndian.Uint32(body[:4])
		e.Hop = binary.BigEndian.Uint16(body[4:6])
		body = body[6:]
		if e.Maintained {
			if len(body) < 8+2 {
				return ErrShort
			}
			e.Value = math.Float64frombits(binary.BigEndian.Uint64(body[:8]))
			pn := int(binary.BigEndian.Uint16(body[8:10]))
			body = body[10:]
			if len(body) < pn {
				return ErrShort
			}
			e.Parent = tuple.NodeID(reg.Intern(body[:pn]))
			body = body[pn:]
		}
		m.Digest = append(m.Digest, e)
	}
	return nil
}

func decodePull(reg *tuple.Registry, body []byte, m *Message) error {
	if len(body) < 4 {
		return ErrShort
	}
	count32 := binary.BigEndian.Uint32(body[:4])
	body = body[4:]
	if count32 > MaxPullIDs {
		return fmt.Errorf("%w: %d pull ids", ErrTooLarge, count32)
	}
	count := int(count32)
	const minID = 2 + 8
	if count*minID > len(body) {
		return ErrShort
	}
	for i := 0; i < count; i++ {
		id, rest, err := takeID(reg, body)
		if err != nil {
			return err
		}
		body = rest
		m.Want = append(m.Want, id)
	}
	return nil
}

func decodePartial(reg *tuple.Registry, body []byte, m *Message) error {
	var err error
	if m.ID, body, err = takeID(reg, body); err != nil {
		return err
	}
	if m.Origin, body, err = takeID(reg, body); err != nil {
		return err
	}
	if len(body) < 1+8+3*8 {
		return ErrShort
	}
	flags := body[0]
	m.Partial.Count = int64(binary.BigEndian.Uint64(body[1:9]))
	m.Partial.Sum = math.Float64frombits(binary.BigEndian.Uint64(body[9:17]))
	m.Partial.Min = math.Float64frombits(binary.BigEndian.Uint64(body[17:25]))
	m.Partial.Max = math.Float64frombits(binary.BigEndian.Uint64(body[25:33]))
	body = body[33:]
	if flags&1 != 0 {
		m.Partial.HasSketch = true
		if len(body) < 2 {
			return ErrShort
		}
		// Bound the claimed word count before any arithmetic or slice
		// walk is sized from it, mirroring MaxDigestEntries.
		words := binary.BigEndian.Uint16(body[:2])
		if words > MaxSketchWords {
			return fmt.Errorf("%w: %d sketch words", ErrTooLarge, words)
		}
		if words != agg.SketchWords {
			return fmt.Errorf("%w: %d words", ErrSketchSize, words)
		}
		body = body[2:]
		if len(body) < agg.SketchWords*8 {
			return ErrShort
		}
		for i := range m.Partial.Sketch.W {
			m.Partial.Sketch.W[i] = binary.BigEndian.Uint64(body[i*8 : i*8+8])
		}
	}
	return nil
}

func decodeBatch(reg *tuple.Registry, body []byte, m *Message) error {
	if len(body) < 4 {
		return ErrShort
	}
	count32 := binary.BigEndian.Uint32(body[:4])
	body = body[4:]
	if count32 == 0 {
		return errors.New("wire: empty batch")
	}
	if count32 > MaxBatchMessages {
		return fmt.Errorf("%w: %d batched messages", ErrTooLarge, count32)
	}
	count := int(count32)
	// A sub-message is at least a length prefix plus a header, a 4-byte
	// body prefix and its own checksum trailer.
	const minMsg = 4 + headerSize + 4 + ChecksumSize
	if count*minMsg > len(body) {
		return ErrShort
	}
	for i := 0; i < count; i++ {
		if len(body) < 4 {
			return ErrShort
		}
		n64 := int64(binary.BigEndian.Uint32(body[:4]))
		if int64(len(body)) < 4+n64 {
			return ErrShort
		}
		n := int(n64)
		// Reuse the scratch element (and its nested slice capacity) when
		// the previous decode left one behind.
		if i < cap(m.Batch) {
			m.Batch = m.Batch[:i+1]
		} else {
			m.Batch = append(m.Batch, Message{})
		}
		if err := decodeInto(reg, body[4:4+n], &m.Batch[i], true); err != nil {
			return fmt.Errorf("wire: batch message %d: %w", i, err)
		}
		body = body[4+n:]
	}
	return nil
}

func takeID(reg *tuple.Registry, body []byte) (tuple.ID, []byte, error) {
	if len(body) < 2 {
		return tuple.ID{}, nil, ErrShort
	}
	nn := int(binary.BigEndian.Uint16(body[:2]))
	if len(body) < 2+nn+8 {
		return tuple.ID{}, nil, ErrShort
	}
	id := tuple.ID{
		Node: tuple.NodeID(reg.Intern(body[2 : 2+nn])),
		Seq:  binary.BigEndian.Uint64(body[2+nn : 2+nn+8]),
	}
	return id, body[2+nn+8:], nil
}
