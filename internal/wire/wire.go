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
// the version-3 encoding.
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
	// version 3 with no trace bytes.
	Trace TraceCtx
}

// Frame versions. The format is compact: every length, count, seq,
// version and hop is an unsigned varint, and a digest value takes the
// tuple codec's compact float form (tuple.AppendFloat). Version 3 is
// untraced; version 4 frames carry a 16-byte TraceCtx between the
// announcement version and the tuple bytes of a MsgTuple body.
// Encoders emit version 4 only when a trace context is present, so
// disabling sampling reproduces version-3 bytes exactly; decoders
// accept both. Versions 1 and 2, the fixed-width format, decode as
// ErrVersion.
const (
	wireVersion       = 3
	wireVersionTraced = 4
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

// Frame layout constants, exported so the engine can pack frames
// against a transport's payload budget without trial encodes. The
// overheads are upper bounds: each reserves two varint bytes for its
// count, the most a count within its Max bound takes.
const (
	headerSize = 4 // version, type, hop 0, parent length 0
	// minFrame is the shortest frame: a header and a checksum trailer.
	minFrame = headerSize + ChecksumSize
	// BatchOverhead is the most a batch frame costs beyond its entries
	// (BatchEntrySize): the shared header, the sub-message count, and
	// the frame's checksum trailer.
	BatchOverhead = headerSize + 2 + ChecksumSize
	// DigestOverhead is the most a digest message with an empty parent
	// costs beyond its entries (DigestEntrySize): header, entry count,
	// checksum trailer.
	DigestOverhead = headerSize + 2 + ChecksumSize
	// PullOverhead is the most a pull message with an empty parent
	// costs beyond its ids (PullIDSize): header, id count, checksum
	// trailer.
	PullOverhead = headerSize + 2 + ChecksumSize
)

// Fewest bytes one element of a counted body takes, which bounds a
// claimed count by the bytes behind it.
const (
	minBatchEntry  = 1 + minFrame  // length prefix, shortest frame
	minDigestEntry = 1 + 2 + 1 + 1 // flags, id, version, hop
	minID          = 2             // empty node's length, seq
)

// BatchEntrySize returns what a sub-message of n encoded bytes adds to
// a batch frame: its length prefix and its bytes. Sub-messages carry
// their own trailers, already counted in n.
func BatchEntrySize(n int) int { return tuple.UvarintSize(uint64(n)) + n }

// PullIDSize returns the encoded size of one pull-request id, for
// packing pulls against a frame payload budget.
func PullIDSize(id tuple.ID) int { return idSize(id) }

// Encode serializes a message. The buffer is preallocated to the exact
// message size, varint widths counted, so the whole packet is built
// with one allocation and no re-copies — the per-packet hot path of
// every broadcast, refresh, and announcement. A carried tuple's content
// is built once: the size (tuple.EncodedSize) and the bytes
// (tuple.AppendEncode) come from the same slice.
func Encode(m Message) ([]byte, error) {
	header := headerLen(&m)
	switch m.Type {
	case MsgTuple:
		if m.Tuple == nil {
			return nil, errors.New("wire: MsgTuple without tuple")
		}
		traced := m.Trace.TraceID != 0
		c := m.Tuple.Content()
		size := header + tuple.UvarintSize(uint64(m.Ver)) + tuple.EncodedSize(m.Tuple, c) + ChecksumSize
		ver := byte(wireVersion)
		if traced {
			size += TraceCtxSize
			ver = wireVersionTraced
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, ver, &m)
		b = binary.AppendUvarint(b, uint64(m.Ver))
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
		b := make([]byte, 0, header+tuple.UvarintSize(uint64(len(id)))+len(id)+ChecksumSize)
		b = appendHeader(b, wireVersion, &m)
		b = binary.AppendUvarint(b, uint64(len(id)))
		return seal(append(b, id...)), nil
	case MsgDigest:
		if len(m.Digest) > MaxDigestEntries {
			return nil, fmt.Errorf("%w: %d digest entries", ErrTooLarge, len(m.Digest))
		}
		size := header + tuple.UvarintSize(uint64(len(m.Digest))) + ChecksumSize
		for i := range m.Digest {
			e := &m.Digest[i]
			if len(e.ID.Node) > math.MaxUint16 || len(e.Parent) > math.MaxUint16 {
				return nil, fmt.Errorf("%w: digest entry id or parent over %d bytes", ErrTooLarge, math.MaxUint16)
			}
			size += digestEntrySize(e)
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, wireVersion, &m)
		b = binary.AppendUvarint(b, uint64(len(m.Digest)))
		for i := range m.Digest {
			b = appendDigestEntry(b, &m.Digest[i])
		}
		return seal(b), nil
	case MsgPull:
		if len(m.Want) > MaxPullIDs {
			return nil, fmt.Errorf("%w: %d pull ids", ErrTooLarge, len(m.Want))
		}
		size := header + tuple.UvarintSize(uint64(len(m.Want))) + ChecksumSize
		for _, id := range m.Want {
			if len(id.Node) > math.MaxUint16 {
				return nil, fmt.Errorf("%w: pull id node over %d bytes", ErrTooLarge, math.MaxUint16)
			}
			size += idSize(id)
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, wireVersion, &m)
		b = binary.AppendUvarint(b, uint64(len(m.Want)))
		for _, id := range m.Want {
			b = appendID(b, id)
		}
		return seal(b), nil
	case MsgPartial:
		if len(m.ID.Node) > math.MaxUint16 || len(m.Origin.Node) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: partial id node over %d bytes", ErrTooLarge, math.MaxUint16)
		}
		size := header + idSize(m.ID) + idSize(m.Origin) + 1 + 8 + 3*8 + ChecksumSize
		if m.Partial.HasSketch {
			size += 2 + agg.SketchWords*8
		}
		b := make([]byte, 0, size)
		b = appendHeader(b, wireVersion, &m)
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
	size := 1 + idSize(e.ID) + tuple.UvarintSize(uint64(e.Ver)) + tuple.UvarintSize(uint64(e.Hop))
	if e.Maintained {
		size += tuple.FloatSize(e.Value) + tuple.UvarintSize(uint64(len(e.Parent))) + len(e.Parent)
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
	b = binary.AppendUvarint(b, uint64(e.Ver))
	b = binary.AppendUvarint(b, uint64(e.Hop))
	if e.Maintained {
		b = tuple.AppendFloat(b, e.Value)
		b = binary.AppendUvarint(b, uint64(len(e.Parent)))
		b = append(b, e.Parent...)
	}
	return b
}

// appendID encodes a tuple id as (node length, node, seq) — more
// compact and alloc-free to decode compared to the "node#seq" string
// form used by the retract/withdraw bodies.
func appendID(b []byte, id tuple.ID) []byte {
	b = binary.AppendUvarint(b, uint64(len(id.Node)))
	b = append(b, id.Node...)
	return binary.AppendUvarint(b, id.Seq)
}

func idSize(id tuple.ID) int {
	return tuple.UvarintSize(uint64(len(id.Node))) + len(id.Node) + tuple.UvarintSize(id.Seq)
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
	size := headerSize + tuple.UvarintSize(uint64(len(msgs))) + ChecksumSize
	for _, msg := range msgs {
		if len(msg) >= 2 && MsgType(msg[1]) == MsgBatch {
			return nil, ErrNestedBatch
		}
		size += BatchEntrySize(len(msg))
	}
	b := make([]byte, 0, size)
	b = appendHeader(b, wireVersion, &Message{Type: MsgBatch})
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, msg := range msgs {
		b = binary.AppendUvarint(b, uint64(len(msg)))
		b = append(b, msg...)
	}
	return seal(b), nil
}

// headerLen is the encoded size of m's header.
func headerLen(m *Message) int {
	return 2 + tuple.UvarintSize(uint64(m.Hop)) + tuple.UvarintSize(uint64(len(m.Parent))) + len(m.Parent)
}

func appendHeader(b []byte, ver byte, m *Message) []byte {
	b = append(b, ver, byte(m.Type))
	b = binary.AppendUvarint(b, uint64(m.Hop))
	b = binary.AppendUvarint(b, uint64(len(m.Parent)))
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
// Batch) across calls — the engine's pooled decode scratch, which
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
	if len(data) < minFrame {
		return ErrShort
	}
	sealed, trailer := data[:len(data)-ChecksumSize], data[len(data)-ChecksumSize:]
	if crc32.Checksum(sealed, castagnoli) != binary.BigEndian.Uint32(trailer) {
		return ErrChecksum
	}
	ver := sealed[0]
	if ver != wireVersion && ver != wireVersionTraced {
		return fmt.Errorf("%w: %d", ErrVersion, ver)
	}
	m.Type = MsgType(sealed[1])
	r := reader{b: sealed[2:]}
	m.Hop = uint16(r.uvarint(math.MaxUint16))
	m.Parent = tuple.NodeID(reg.Intern(r.bytes()))
	switch m.Type {
	case MsgTuple:
		m.Ver = uint32(r.uvarint(math.MaxUint32))
		if ver == wireVersionTraced {
			if tc := r.fixed(TraceCtxSize); tc != nil {
				m.Trace.TraceID = binary.BigEndian.Uint64(tc[:8])
				m.Trace.Span = binary.BigEndian.Uint64(tc[8:])
			}
		}
		if r.err != nil {
			return r.err
		}
		env, err := tuple.ReadEnvelope(reg, r.b)
		if err != nil {
			return fmt.Errorf("wire: decode tuple: %w", err)
		}
		m.Env, m.Raw = env, r.b
	case MsgRetract, MsgWithdraw:
		s := r.bytes()
		if r.err != nil {
			return r.err
		}
		id, err := reg.ParseID(s)
		if err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		m.ID = id
	case MsgDigest:
		decodeDigest(reg, &r, m)
	case MsgPull:
		count := r.count(MaxPullIDs, minID)
		for i := 0; i < count && r.err == nil; i++ {
			if id := r.id(reg); r.err == nil {
				m.Want = append(m.Want, id)
			}
		}
	case MsgPartial:
		decodePartial(reg, &r, m)
	case MsgBatch:
		if r.err == nil && inBatch {
			return ErrNestedBatch
		}
		return decodeBatch(reg, &r, m)
	default:
		if r.err == nil {
			return fmt.Errorf("%w: %d", ErrType, m.Type)
		}
	}
	return r.err
}

func decodeDigest(reg *tuple.Registry, r *reader, m *Message) {
	count := r.count(MaxDigestEntries, minDigestEntry)
	for i := 0; i < count && r.err == nil; i++ {
		var e DigestEntry
		e.Maintained = r.byte()&1 != 0
		e.ID = r.id(reg)
		e.Ver = uint32(r.uvarint(math.MaxUint32))
		e.Hop = uint16(r.uvarint(math.MaxUint16))
		if e.Maintained {
			e.Value = r.float()
			e.Parent = tuple.NodeID(reg.Intern(r.bytes()))
		}
		if r.err == nil {
			m.Digest = append(m.Digest, e)
		}
	}
}

func decodePartial(reg *tuple.Registry, r *reader, m *Message) {
	m.ID = r.id(reg)
	m.Origin = r.id(reg)
	flags := r.byte()
	if f := r.fixed(8 + 3*8); f != nil {
		m.Partial.Count = int64(binary.BigEndian.Uint64(f[0:8]))
		m.Partial.Sum = math.Float64frombits(binary.BigEndian.Uint64(f[8:16]))
		m.Partial.Min = math.Float64frombits(binary.BigEndian.Uint64(f[16:24]))
		m.Partial.Max = math.Float64frombits(binary.BigEndian.Uint64(f[24:32]))
	}
	if flags&1 == 0 || r.err != nil {
		return
	}
	m.Partial.HasSketch = true
	w := r.fixed(2)
	if w == nil {
		return
	}
	// Bound the claimed word count before any arithmetic or slice walk
	// is sized from it, mirroring MaxDigestEntries.
	switch words := binary.BigEndian.Uint16(w); {
	case words > MaxSketchWords:
		r.err = fmt.Errorf("%w: %d sketch words", ErrTooLarge, words)
	case words != agg.SketchWords:
		r.err = fmt.Errorf("%w: %d words", ErrSketchSize, words)
	}
	if s := r.fixed(agg.SketchWords * 8); s != nil {
		for i := range m.Partial.Sketch.W {
			m.Partial.Sketch.W[i] = binary.BigEndian.Uint64(s[i*8:])
		}
	}
}

func decodeBatch(reg *tuple.Registry, r *reader, m *Message) error {
	count := r.count(MaxBatchMessages, minBatchEntry)
	if r.err != nil {
		return r.err
	}
	if count == 0 {
		return errors.New("wire: empty batch")
	}
	for i := 0; i < count; i++ {
		sub := r.bytes()
		if r.err != nil {
			return r.err
		}
		// Reuse the scratch element (and its nested slice capacity) when
		// the previous decode left one behind.
		if i < cap(m.Batch) {
			m.Batch = m.Batch[:i+1]
		} else {
			m.Batch = append(m.Batch, Message{})
		}
		if err := decodeInto(reg, sub, &m.Batch[i], true); err != nil {
			return fmt.Errorf("wire: batch message %d: %w", i, err)
		}
	}
	return nil
}

// reader walks a frame body. Its first failure sticks: later reads
// return zero values, and err keeps the failure.
type reader struct {
	b   []byte
	err error
}

func (r *reader) byte() byte {
	if b := r.fixed(1); b != nil {
		return b[0]
	}
	return 0
}

// fixed reads the next n bytes, nil if they are not all there.
func (r *reader) fixed(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// uvarint reads an unsigned varint no larger than max: a truncated one
// is ErrShort, one past 64 bits or past max ErrTooLarge.
func (r *reader) uvarint(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) > 0 && r.b[0] < 0x80 && uint64(r.b[0]) <= max { // the common one-byte case
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = ErrShort
		return 0
	case n < 0 || v > max:
		r.err = ErrTooLarge
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed byte string, aliasing the frame. The
// length is checked against the bytes left in 64-bit space, so no
// claimed length can wrap the bounds arithmetic on a 32-bit platform.
func (r *reader) bytes() []byte {
	n := r.uvarint(math.MaxUint64)
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = ErrShort
	}
	return r.fixed(int(n))
}

// count reads an element count and bounds it before anything is sized
// from it: past max is ErrTooLarge, and more elements of at least
// minSize bytes than the rest of the body holds is ErrShort.
func (r *reader) count(max uint64, minSize int) int {
	n := r.uvarint(max)
	if r.err == nil && n > uint64(len(r.b)/minSize) {
		r.err = ErrShort
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// id reads a tuple id as appendID writes it, interning the node.
func (r *reader) id(reg *tuple.Registry) tuple.ID {
	node := r.bytes()
	seq := r.uvarint(math.MaxUint64)
	if r.err != nil {
		return tuple.ID{}
	}
	return tuple.ID{Node: tuple.NodeID(reg.Intern(node)), Seq: seq}
}

// float reads a value in the compact float form.
func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	v, n, err := tuple.ReadFloat(r.b)
	if err != nil {
		r.err = fmt.Errorf("wire: %w", err)
		return 0
	}
	r.b = r.b[n:]
	return v
}
