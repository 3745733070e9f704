package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"tota/internal/agg"
	"tota/internal/pattern"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// FuzzDecode feeds arbitrary bytes to the wire codec: it must never
// panic and must either reject the input or produce a message that
// re-encodes. Where Decode builds a tuple, the envelope DecodeInto read
// instead must name the same kind and id, and for a maintained tuple
// carry its Value.
func FuzzDecode(f *testing.F) {
	reg := tuple.NewRegistry()
	reg.MustRegister("flat", func(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
		ft := &flatTuple{c: c}
		ft.SetID(id)
		return ft, nil
	})
	if err := pattern.Register(reg); err != nil {
		f.Fatal(err)
	}
	agg.Register(reg)

	ft := &flatTuple{c: tuple.Content{tuple.S("k", "v")}}
	ft.SetID(tuple.ID{Node: "n", Seq: 1})
	if data, err := Encode(Message{Type: MsgTuple, Hop: 2, Parent: "p", Tuple: ft}); err == nil {
		f.Add(data)
	}
	// A traced (version-2) announcement: the 16-byte trace context sits
	// between the announcement version and the tuple bytes.
	if data, err := Encode(Message{Type: MsgTuple, Hop: 2, Parent: "p", Tuple: ft,
		Trace: TraceCtx{TraceID: 0xfeed, Span: 0xbeef}}); err == nil {
		f.Add(data)
	}
	if data, err := Encode(Message{Type: MsgRetract, ID: tuple.ID{Node: "n", Seq: 9}}); err == nil {
		f.Add(data)
	}
	// Maintained announcements, alone and batched: a gradient, a spatial
	// field and an aggregation query.
	g := pattern.NewGradient("g", tuple.S("p", "x"))
	g.SetID(tuple.ID{Node: "s", Seq: 3})
	g.Val = 2
	sp := pattern.NewSpatial("sp", 5)
	sp.SetID(tuple.ID{Node: "s", Seq: 4})
	q := agg.NewQuery("q", agg.Sum, tuple.Selector{Kind: "k", Field: "v"})
	q.SetID(tuple.ID{Node: "s", Seq: 5})
	var subs [][]byte
	for _, mt := range []tuple.Tuple{g, sp, q} {
		if data, err := Encode(Message{Type: MsgTuple, Hop: 1, Ver: 2, Parent: "p", Tuple: mt}); err == nil {
			f.Add(data)
			subs = append(subs, data)
		}
	}
	if frame, err := EncodeBatch(subs); err == nil {
		f.Add(frame)
	}
	if data, err := Encode(Message{Type: MsgDigest, Digest: []DigestEntry{
		{ID: tuple.ID{Node: "a", Seq: 1}, Ver: 3, Hop: 1},
		{ID: tuple.ID{Node: "b", Seq: 2}, Ver: 9, Hop: 2, Maintained: true, Value: 1.5, Parent: "a"},
	}}); err == nil {
		f.Add(data)
	}
	if data, err := Encode(Message{Type: MsgPull, Want: []tuple.ID{
		{Node: "a", Seq: 1}, {Node: "b", Seq: 2},
	}}); err == nil {
		f.Add(data)
	}
	// A two-message batch frame: a versioned tuple announcement plus a
	// withdraw.
	if tupleMsg, err := Encode(Message{Type: MsgTuple, Hop: 1, Ver: 4, Parent: "p", Tuple: ft}); err == nil {
		if wd, err := Encode(Message{Type: MsgWithdraw, ID: tuple.ID{Node: "n", Seq: 2}}); err == nil {
			if frame, err := EncodeBatch([][]byte{tupleMsg, wd}); err == nil {
				f.Add(frame)
				// Handcrafted nested batch: must be rejected, not recursed.
				nested := []byte{wireVersion, byte(MsgBatch), 0, 0, 1} // header, count=1
				nested = binary.AppendUvarint(nested, uint64(len(frame)))
				f.Add(append(nested, frame...))
			}
		}
	}
	// Frames damaged exactly as the fault injector damages them: valid
	// encodings with 1-3 random byte flips. The checksum trailer must
	// reject these (or, when a flip lands in the trailer of a frame with
	// a colliding CRC, the survivor must still re-encode).
	rng := rand.New(rand.NewSource(1303))
	if data, err := Encode(Message{Type: MsgTuple, Hop: 2, Parent: "p", Tuple: ft}); err == nil {
		for i := 0; i < 8; i++ {
			f.Add(transport.CorruptBytes(rng, data, 0))
		}
	}
	if data, err := Encode(Message{Type: MsgDigest, Digest: []DigestEntry{
		{ID: tuple.ID{Node: "a", Seq: 1}, Ver: 3, Hop: 1, Maintained: true, Value: 2},
	}}); err == nil {
		for i := 0; i < 8; i++ {
			f.Add(transport.CorruptBytes(rng, data, 0))
		}
	}
	// Aggregation frames: a retired epoch wave and partials with and
	// without the distinct sketch, plus injector-corrupted variants of
	// each.
	f.Add(retiredQueryFrame)
	for i := 0; i < 8; i++ {
		f.Add(transport.CorruptBytes(rng, retiredQueryFrame, 0))
	}
	plain := agg.NewPartial()
	plain.Observe(agg.Sum, 2.5)
	if data, err := Encode(Message{Type: MsgPartial, ID: tuple.ID{Node: "root", Seq: 4}, Partial: plain}); err == nil {
		f.Add(data)
		for i := 0; i < 8; i++ {
			f.Add(transport.CorruptBytes(rng, data, 0))
		}
	}
	sketched := agg.NewPartial()
	sketched.Observe(agg.CountDistinct, 1)
	sketched.Observe(agg.CountDistinct, 2)
	if data, err := Encode(Message{
		Type: MsgPartial, ID: tuple.ID{Node: "root", Seq: 4},
		Origin: tuple.ID{Node: "leaf", Seq: 2}, Partial: sketched,
	}); err == nil {
		f.Add(data)
		for i := 0; i < 8; i++ {
			f.Add(transport.CorruptBytes(rng, data, 0))
		}
	}

	// Oversized claimed counts with no bytes behind them.
	f.Add(seal([]byte{wireVersion, byte(MsgBatch), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}))
	f.Add(seal([]byte{wireVersion, byte(MsgDigest), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}))
	f.Add(seal([]byte{wireVersion, byte(MsgPull), 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}))
	// A partial whose sketch claims 0xffff words behind a valid moment
	// block: the word-count bound must reject it before sizing any walk.
	f.Add(seal([]byte{
		wireVersion, byte(MsgPartial), 0, 0, // header, empty parent
		1, 'n', 1, // id
		0, 0, // zero origin
		1,                      // flags: sketch present
		0, 0, 0, 0, 0, 0, 0, 0, // count
		0, 0, 0, 0, 0, 0, 0, 0, // sum
		0, 0, 0, 0, 0, 0, 0, 0, // min
		0, 0, 0, 0, 0, 0, 0, 0, // max
		0xff, 0xff, // claimed sketch words
	}))
	f.Add([]byte{})
	f.Add([]byte{wireVersion, byte(MsgTuple), 0, 0, 0, 0, 0, 0})

	var into Message
	f.Fuzz(func(t *testing.T, data []byte) {
		intoErr := DecodeInto(reg, data, &into)
		msg, err := Decode(reg, data)
		if err != nil {
			return
		}
		if intoErr != nil {
			t.Fatalf("Decode accepted what DecodeInto rejected: %v", intoErr)
		}
		checkEnvelopes(t, &into, &msg)
		if _, err := Encode(msg); err != nil {
			t.Fatalf("accepted message failed to re-encode: %+v: %v", msg, err)
		}
	})
}

// checkEnvelopes compares the envelopes DecodeInto read with the tuples
// Decode built from the same frame.
func checkEnvelopes(t *testing.T, into, built *Message) {
	t.Helper()
	if built.Type == MsgTuple {
		env, tt := into.Env, built.Tuple
		if into.Tuple != nil || env.ID != tt.ID() || env.Kind != tt.Kind() {
			t.Fatalf("envelope %+v (tuple %v), built %s %v", env, into.Tuple, tt.Kind(), tt.ID())
		}
		if m, ok := tt.(tuple.Maintained); ok && env.HasValue && math.Float64bits(env.Value) != math.Float64bits(m.Value()) {
			t.Fatalf("%s %v: envelope value %v, Value() %v", tt.Kind(), tt.ID(), env.Value, m.Value())
		}
	}
	for i := range built.Batch {
		checkEnvelopes(t, &into.Batch[i], &built.Batch[i])
	}
}
