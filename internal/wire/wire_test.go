package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"tota/internal/pattern"
	"tota/internal/tuple"
)

// flatTuple is a content-only tuple for wire tests.
type flatTuple struct {
	tuple.Base

	c tuple.Content
}

var _ tuple.Tuple = (*flatTuple)(nil)

func (f *flatTuple) Kind() string           { return "flat" }
func (f *flatTuple) Content() tuple.Content { return f.c }

func newWireRegistry(t *testing.T) *tuple.Registry {
	t.Helper()
	r := tuple.NewRegistry()
	err := r.Register("flat", func(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
		ft := &flatTuple{c: c}
		ft.SetID(id)
		return ft, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	return r
}

func TestTupleMessageRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v"), tuple.I("hops", 3)}}
	ft.SetID(tuple.ID{Node: "src", Seq: 9})

	data, err := Encode(Message{Type: MsgTuple, Hop: 7, Parent: "prev-hop", Tuple: ft})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != MsgTuple || got.Hop != 7 || got.Parent != "prev-hop" {
		t.Errorf("envelope = %+v", got)
	}
	if got.Tuple.ID() != ft.ID() || !got.Tuple.Content().Equal(ft.Content()) {
		t.Errorf("tuple mismatch: %v", got.Tuple)
	}
}

func TestRetractMessageRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	id := tuple.ID{Node: "node-1", Seq: 77}
	data, err := Encode(Message{Type: MsgRetract, ID: id})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != MsgRetract || got.ID != id {
		t.Errorf("got %+v", got)
	}
}

func TestWithdrawMessageRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	id := tuple.ID{Node: "w", Seq: 3}
	data, err := Encode(Message{Type: MsgWithdraw, ID: id})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != MsgWithdraw || got.ID != id {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(Message{Type: MsgTuple}); err == nil {
		t.Error("Encode MsgTuple without tuple succeeded")
	}
	if _, err := Encode(Message{Type: MsgType(99)}); !errors.Is(err, ErrType) {
		t.Errorf("unknown type: %v", err)
	}
}

// retiredQueryFrame is an aggregation epoch wave as older binaries sent
// it, laid out in the current format: type 7, hop 3, query id root#4,
// epoch 17. The type stays unassigned, so the frame must decode as
// ErrType.
var retiredQueryFrame = seal([]byte{
	wireVersion, 7, 3, 0, // header: version, type 7, hop 3, empty parent
	4, 'r', 'o', 'o', 't', 4, // id
	17, // epoch
})

func TestDecodeErrors(t *testing.T) {
	r := newWireRegistry(t)
	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v")}}
	good, err := Encode(Message{Type: MsgTuple, Tuple: ft})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// Hand-built frames are sealed with a valid trailer so each case
	// probes the decode bound it targets, not the checksum gate.
	goodBody := good[:len(good)-ChecksumSize]
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	tests := []struct {
		name string
		give []byte
		want error
	}{
		{name: "empty", give: nil, want: ErrShort},
		{name: "tiny", give: []byte{wireVersion, 1}, want: ErrShort},
		{name: "bad version", give: seal(append([]byte{9}, goodBody[1:]...)), want: ErrVersion},
		// The parent length's varint is cut off after its first byte.
		{name: "missing parent", give: seal([]byte{wireVersion, 1, 0, 0x80}), want: ErrShort},
		{name: "truncated parent", give: seal([]byte{wireVersion, 1, 0, 5, 'x'}), want: ErrShort},
		{name: "bad type", give: seal([]byte{wireVersion, 99, 0, 0}), want: ErrType},
		{name: "retired query type", give: retiredQueryFrame, want: ErrType},
		{name: "flipped byte", give: flipped, want: ErrChecksum},
		{
			name: "retract truncated",
			give: seal([]byte{wireVersion, byte(MsgRetract), 0, 0, 9}),
			want: ErrShort,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(r, tt.give); !errors.Is(err, tt.want) {
				t.Errorf("Decode = %v, want %v", err, tt.want)
			}
		})
	}

	t.Run("retract bad id", func(t *testing.T) {
		msg := seal([]byte{wireVersion, byte(MsgRetract), 0, 0, 3, 'a', 'b', 'c'})
		if _, err := Decode(r, msg); err == nil || errors.Is(err, ErrShort) {
			t.Error("Decode of malformed id succeeded")
		}
	})
	t.Run("tuple body corrupt", func(t *testing.T) {
		if _, err := Decode(r, good[:len(good)-2]); err == nil {
			t.Error("Decode of truncated tuple succeeded")
		}
	})
}

func TestMsgTypeString(t *testing.T) {
	if MsgTuple.String() != "tuple" || MsgRetract.String() != "retract" || MsgWithdraw.String() != "withdraw" {
		t.Error("MsgType names wrong")
	}
	if MsgDigest.String() != "digest" || MsgPull.String() != "pull" || MsgBatch.String() != "batch" {
		t.Error("MsgType names wrong")
	}
	if MsgType(42).String() != "MsgType(42)" {
		t.Errorf("unknown = %q", MsgType(42).String())
	}
}

func TestTupleMessageCarriesVersion(t *testing.T) {
	r := newWireRegistry(t)
	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v")}}
	ft.SetID(tuple.ID{Node: "src", Seq: 1})

	data, err := Encode(Message{Type: MsgTuple, Ver: 41, Tuple: ft})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Ver != 41 {
		t.Errorf("Ver = %d, want 41", got.Ver)
	}
}

func TestDigestMessageRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	msg := Message{Type: MsgDigest, Digest: []DigestEntry{
		{ID: tuple.ID{Node: "a", Seq: 1}, Ver: 3, Hop: 2},
		{
			ID: tuple.ID{Node: "b", Seq: 9}, Ver: 17, Hop: 4,
			Maintained: true, Value: 4.5, Parent: "up",
		},
		{
			ID: tuple.ID{Node: "src", Seq: 2}, Ver: 1,
			Maintained: true, Value: 0, Parent: "",
		},
	}}
	data, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != MsgDigest || len(got.Digest) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range msg.Digest {
		if got.Digest[i] != msg.Digest[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got.Digest[i], msg.Digest[i])
		}
	}
}

func TestPullMessageRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	msg := Message{Type: MsgPull, Want: []tuple.ID{
		{Node: "a", Seq: 1}, {Node: "longer-node-name", Seq: 1 << 40},
	}}
	data, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != MsgPull || len(got.Want) != 2 {
		t.Fatalf("got %+v", got)
	}
	for i := range msg.Want {
		if got.Want[i] != msg.Want[i] {
			t.Errorf("id %d = %+v, want %+v", i, got.Want[i], msg.Want[i])
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v")}}
	ft.SetID(tuple.ID{Node: "src", Seq: 5})

	subs := []Message{
		{Type: MsgTuple, Hop: 1, Ver: 2, Parent: "p", Tuple: ft},
		{Type: MsgWithdraw, ID: tuple.ID{Node: "w", Seq: 8}},
		{Type: MsgDigest, Digest: []DigestEntry{{ID: tuple.ID{Node: "d", Seq: 1}, Ver: 7}}},
	}
	encoded := make([][]byte, len(subs))
	for i, sub := range subs {
		b, err := Encode(sub)
		if err != nil {
			t.Fatalf("Encode sub %d: %v", i, err)
		}
		encoded[i] = b
	}
	frame, err := EncodeBatch(encoded)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}

	// A count under 128 takes one of the two varint bytes BatchOverhead
	// reserves for it.
	wantLen := BatchOverhead - 1
	for _, b := range encoded {
		wantLen += BatchEntrySize(len(b))
	}
	if len(frame) != wantLen {
		t.Errorf("frame len = %d, want %d (BatchOverhead/BatchEntrySize drifted)", len(frame), wantLen)
	}

	got, err := Decode(r, frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != MsgBatch || len(got.Batch) != 3 {
		t.Fatalf("got %+v", got)
	}
	if b := got.Batch[0]; b.Type != MsgTuple || b.Hop != 1 || b.Ver != 2 || b.Parent != "p" ||
		b.Tuple.ID() != ft.ID() || !b.Tuple.Content().Equal(ft.Content()) {
		t.Errorf("batch[0] = %+v", b)
	}
	if b := got.Batch[1]; b.Type != MsgWithdraw || b.ID != subs[1].ID {
		t.Errorf("batch[1] = %+v", b)
	}
	if b := got.Batch[2]; b.Type != MsgDigest || len(b.Digest) != 1 || b.Digest[0] != subs[2].Digest[0] {
		t.Errorf("batch[2] = %+v", b)
	}

	// Encoding the decoded batch message re-packs the same frame.
	again, err := Encode(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(frame) {
		t.Error("re-encoded batch differs from original frame")
	}
}

func TestBatchRejectsNestedAndEmpty(t *testing.T) {
	r := newWireRegistry(t)
	inner, err := Encode(Message{Type: MsgRetract, ID: tuple.ID{Node: "n", Seq: 1}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	frame, err := EncodeBatch([][]byte{inner})
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}

	if _, err := EncodeBatch([][]byte{frame}); !errors.Is(err, ErrNestedBatch) {
		t.Errorf("EncodeBatch(batch) = %v, want ErrNestedBatch", err)
	}
	if _, err := Encode(Message{Type: MsgBatch, Batch: []Message{{Type: MsgBatch}}}); !errors.Is(err, ErrNestedBatch) {
		t.Errorf("Encode nested = %v, want ErrNestedBatch", err)
	}
	if _, err := EncodeBatch(nil); err == nil {
		t.Error("EncodeBatch(nil) succeeded")
	}

	// Handcraft a nested frame: a batch whose single sub-message is
	// itself a batch. Decode must reject it without panicking.
	nested, err := EncodeBatch([][]byte{inner})
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	b := []byte{wireVersion, byte(MsgBatch), 0, 0} // header, empty parent
	b = append(b, 1)                               // count=1
	b = binary.AppendUvarint(b, uint64(len(nested)))
	b = append(b, nested...)
	b = seal(b)
	if _, err := Decode(r, b); !errors.Is(err, ErrNestedBatch) {
		t.Errorf("Decode nested = %v, want ErrNestedBatch", err)
	}
}

func TestDecodeRejectsOversizedCounts(t *testing.T) {
	r := newWireRegistry(t)
	// Each frame claims a huge element count with no bytes behind it;
	// decode must fail fast without sizing an allocation from the claim.
	frames := map[string][]byte{
		"batch":  seal([]byte{wireVersion, byte(MsgBatch), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		"digest": seal([]byte{wireVersion, byte(MsgDigest), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		"pull":   seal([]byte{wireVersion, byte(MsgPull), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}),
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(r, frame); !errors.Is(err, ErrTooLarge) {
				t.Errorf("Decode = %v, want ErrTooLarge", err)
			}
		})
	}
	// A plausible count (within bounds) but truncated body is short, not
	// an allocation of count elements.
	short := seal([]byte{wireVersion, byte(MsgDigest), 0, 0, 0xc8, 0x01}) // count 200
	if _, err := Decode(r, short); !errors.Is(err, ErrShort) {
		t.Errorf("Decode = %v, want ErrShort", err)
	}

	big := Message{Type: MsgDigest, Digest: make([]DigestEntry, MaxDigestEntries+1)}
	if _, err := Encode(big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Encode oversized digest = %v, want ErrTooLarge", err)
	}
}

func TestEncodeRejectsOversizedIDs(t *testing.T) {
	// Node and parent names in digests, pulls and partials are bounded
	// at 64 KiB, past the largest datagram: a longer name is refused at
	// encode rather than sent.
	long := tuple.NodeID(strings.Repeat("n", math.MaxUint16+1))
	id := tuple.ID{Node: long, Seq: 1}
	if _, err := Encode(Message{Type: MsgPull, Want: []tuple.ID{id}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Encode pull with oversized node = %v, want ErrTooLarge", err)
	}
	if _, err := Encode(Message{Type: MsgDigest, Digest: []DigestEntry{{ID: id}}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Encode digest with oversized id = %v, want ErrTooLarge", err)
	}
	entry := DigestEntry{ID: tuple.ID{Node: "a", Seq: 1}, Maintained: true, Parent: long}
	if _, err := Encode(Message{Type: MsgDigest, Digest: []DigestEntry{entry}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Encode digest with oversized parent = %v, want ErrTooLarge", err)
	}
}

func TestDecodeRejectsHugeLengthPrefixes(t *testing.T) {
	r := newWireRegistry(t)
	// Length prefixes claiming ~4 GiB, or 2^64-1, must decode as short
	// frames on every platform: the bounds arithmetic must not wrap
	// when int is 32 bits wide.
	frames := map[string][]byte{
		"parent":    seal([]byte{wireVersion, byte(MsgRetract), 0, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		"parent64":  seal([]byte{wireVersion, byte(MsgRetract), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}),
		"retractID": seal([]byte{wireVersion, byte(MsgRetract), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		"batchSub": seal([]byte{wireVersion, byte(MsgBatch), 0, 0, // header, empty parent
			1,                            // count=1
			0xff, 0xff, 0xff, 0xff, 0x0f, // sub-message length ~4 GiB
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}), // filler past the min-size precheck
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(r, frame); !errors.Is(err, ErrShort) {
				t.Errorf("Decode = %v, want ErrShort", err)
			}
		})
	}
}

func TestDecodeIntoReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	r := newWireRegistry(t)
	digest, err := Encode(Message{Type: MsgDigest, Digest: []DigestEntry{
		{ID: tuple.ID{Node: "a", Seq: 1}, Ver: 1},
		{ID: tuple.ID{Node: "b", Seq: 2}, Ver: 2},
	}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	var m Message
	if err := DecodeInto(r, digest, &m); err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	// Warm-up decode grows the scratch; subsequent decodes of the same
	// shape must not allocate slices.
	allocs := testing.AllocsPerRun(50, func() {
		if err := DecodeInto(r, digest, &m); err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state digest DecodeInto allocs = %v, want 0", allocs)
	}
	if len(m.Digest) != 2 || m.Digest[1].ID.Node != "b" {
		t.Errorf("decoded digest = %+v", m.Digest)
	}
}

// TestDecodeRetractAllocs: a retract or withdraw names its structure as
// "node#seq" text. The id parses from the frame's bytes and the node
// interns, so a repeated id decodes without allocating.
func TestDecodeRetractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	r := newWireRegistry(t)
	id := tuple.ID{Node: "n0042", Seq: 17}
	var m Message
	for _, typ := range []MsgType{MsgRetract, MsgWithdraw} {
		data, err := Encode(Message{Type: typ, ID: id})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := DecodeInto(r, data, &m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v DecodeInto = %v allocs, want 0", typ, allocs)
		}
		if m.Type != typ || m.ID != id {
			t.Errorf("decoded %v %v, want %v %v", m.Type, m.ID, typ, id)
		}
	}
}

// TestDecodeIntoReadsEnvelope: DecodeInto leaves a carried tuple
// unbuilt, alone or in a batch, and hands over its envelope and bytes.
func TestDecodeIntoReadsEnvelope(t *testing.T) {
	g := pattern.NewGradient("g", tuple.S("p", "x"))
	g.SetID(tuple.ID{Node: "src", Seq: 4})
	g.Val = 3
	ann, err := Encode(Message{Type: MsgTuple, Hop: 2, Ver: 5, Parent: "p", Tuple: g})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := Encode(Message{Type: MsgWithdraw, ID: g.ID()})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeBatch([][]byte{ann, wd})
	if err != nil {
		t.Fatal(err)
	}
	want := tuple.Envelope{Kind: pattern.KindGradient, ID: g.ID(), Value: 3, HasValue: true}
	var m Message
	for _, data := range [][]byte{ann, frame} {
		if err := DecodeInto(tuple.DefaultRegistry, data, &m); err != nil {
			t.Fatal(err)
		}
		sub := &m
		if m.Type == MsgBatch {
			sub = &m.Batch[0]
		}
		if sub.Tuple != nil || sub.Env != want || sub.Hop != 2 || sub.Ver != 5 || sub.Parent != "p" {
			t.Errorf("DecodeInto = %+v, want envelope %+v and no tuple", sub, want)
		}
		built, err := tuple.Decode(tuple.DefaultRegistry, sub.Raw)
		if err != nil || built.ID() != g.ID() || !built.Content().Equal(g.Content()) {
			t.Errorf("tuple from Raw = %v, %v", built, err)
		}
	}
}

// roundTripGradient encodes one gradient announcement and decodes it
// back, the unit BenchmarkWireRoundTrip and its alloc budget measure.
func roundTripGradient(tb testing.TB, g tuple.Tuple) {
	data, err := Encode(Message{Type: MsgTuple, Tuple: g})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := Decode(tuple.DefaultRegistry, data); err != nil {
		tb.Fatal(err)
	}
}

func newRoundTripGradient() *pattern.Gradient {
	g := pattern.NewGradient("bench")
	g.SetID(tuple.ID{Node: "n0001", Seq: 9})
	return g
}

func BenchmarkWireRoundTrip(b *testing.B) {
	g := newRoundTripGradient()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		roundTripGradient(b, g)
	}
}

// TestWireRoundTripAllocs holds a gradient's encode + decode at the 11
// allocations DESIGN.md §6 cites.
func TestWireRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	g := newRoundTripGradient()
	if got := testing.AllocsPerRun(200, func() { roundTripGradient(t, g) }); got != 11 {
		t.Errorf("wire round trip = %.0f allocs/op, want 11 (update DESIGN.md §6 if this is intended)", got)
	}
}

// TestTraceContextRoundTrip covers the version-2 traced MsgTuple frame:
// the 16-byte TraceCtx rides between the announcement version and the
// tuple bytes and survives a round trip.
func TestTraceContextRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v")}}
	ft.SetID(tuple.ID{Node: "src", Seq: 4})

	tc := TraceCtx{TraceID: 0xdeadbeefcafe0001, Span: 0x1122334455667788}
	data, err := Encode(Message{Type: MsgTuple, Hop: 3, Parent: "p", Ver: 9, Tuple: ft, Trace: tc})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if data[0] != wireVersionTraced {
		t.Errorf("version byte = %d, want %d", data[0], wireVersionTraced)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Trace != tc {
		t.Errorf("Trace = %+v, want %+v", got.Trace, tc)
	}
	if got.Hop != 3 || got.Parent != "p" || got.Ver != 9 {
		t.Errorf("envelope = %+v", got)
	}
	if got.Tuple.ID() != ft.ID() || !got.Tuple.Content().Equal(ft.Content()) {
		t.Errorf("tuple mismatch: %v", got.Tuple)
	}

	// The traced frame costs exactly TraceCtxSize bytes over the
	// untraced encoding of the same message.
	plain, err := Encode(Message{Type: MsgTuple, Hop: 3, Parent: "p", Ver: 9, Tuple: ft})
	if err != nil {
		t.Fatalf("Encode untraced: %v", err)
	}
	if len(data) != len(plain)+TraceCtxSize {
		t.Errorf("traced frame = %d bytes, untraced = %d, want +%d", len(data), len(plain), TraceCtxSize)
	}
}

// TestTraceContextOffIsVersion1 pins the sampling-off guarantee: a zero
// TraceCtx encodes the exact version-1 bytes, so untraced deployments
// are wire-identical to pre-trace builds.
func TestTraceContextOffIsVersion1(t *testing.T) {
	r := newWireRegistry(t)
	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v")}}
	ft.SetID(tuple.ID{Node: "src", Seq: 4})

	data, err := Encode(Message{Type: MsgTuple, Hop: 1, Ver: 2, Tuple: ft})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if data[0] != wireVersion {
		t.Errorf("version byte = %d, want %d", data[0], wireVersion)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Trace != (TraceCtx{}) {
		t.Errorf("Trace = %+v, want zero", got.Trace)
	}
}

// TestTraceContextInBatch mixes traced and untraced sub-messages in one
// batch frame; each sub-message carries its own version byte.
func TestTraceContextInBatch(t *testing.T) {
	r := newWireRegistry(t)
	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v")}}
	ft.SetID(tuple.ID{Node: "src", Seq: 4})

	tc := TraceCtx{TraceID: 7, Span: 9}
	traced, err := Encode(Message{Type: MsgTuple, Hop: 1, Ver: 1, Tuple: ft, Trace: tc})
	if err != nil {
		t.Fatalf("Encode traced: %v", err)
	}
	plain, err := Encode(Message{Type: MsgWithdraw, ID: tuple.ID{Node: "n", Seq: 2}})
	if err != nil {
		t.Fatalf("Encode withdraw: %v", err)
	}
	frame, err := EncodeBatch([][]byte{traced, plain})
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	got, err := Decode(r, frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Batch) != 2 {
		t.Fatalf("batch size = %d", len(got.Batch))
	}
	if got.Batch[0].Trace != tc {
		t.Errorf("batched Trace = %+v, want %+v", got.Batch[0].Trace, tc)
	}
	if got.Batch[1].Trace != (TraceCtx{}) {
		t.Errorf("untraced sub-message Trace = %+v, want zero", got.Batch[1].Trace)
	}
}

// TestTraceContextShortFrame rejects a version-2 tuple frame whose body
// ends inside the trace context.
func TestTraceContextShortFrame(t *testing.T) {
	r := newWireRegistry(t)
	b := []byte{wireVersionTraced, byte(MsgTuple), 0, 0} // header, empty parent
	b = append(b, 1)                                     // announcement version
	b = append(b, 1, 2, 3, 4, 5, 6, 7, 8)                // half a trace context
	if _, err := Decode(r, seal(b)); !errors.Is(err, ErrShort) {
		t.Errorf("Decode = %v, want ErrShort", err)
	}
}

// TestTraceContextVersion2NonTuple: non-tuple frames never carry a
// trace context, but a version-2 header on them is tolerated (the
// layout is identical to version 1), keeping the decoder permissive
// toward future senders that stamp one version everywhere.
func TestTraceContextVersion2NonTuple(t *testing.T) {
	r := newWireRegistry(t)
	data, err := Encode(Message{Type: MsgWithdraw, ID: tuple.ID{Node: "n", Seq: 3}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := append([]byte(nil), data[:len(data)-ChecksumSize]...)
	raw[0] = wireVersionTraced
	got, err := Decode(r, seal(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != MsgWithdraw || got.ID.Seq != 3 {
		t.Errorf("got %+v", got)
	}
}

// TestTraceContextUnknownVersionRejected pins the version gate: bytes
// above the traced version are still rejected.
func TestTraceContextUnknownVersionRejected(t *testing.T) {
	r := newWireRegistry(t)
	b := []byte{wireVersionTraced + 1, byte(MsgWithdraw), 0, 0, 0}
	if _, err := Decode(r, seal(b)); !errors.Is(err, ErrVersion) {
		t.Errorf("Decode = %v, want ErrVersion", err)
	}
}
