package wire

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tota/internal/pattern"
	"tota/internal/tuple"
)

// TestEncodedSizes pins the encoded size of the messages the load rig's
// byte counts are made of, so a format change fails here before it
// moves a rig number, and checks that Encode sized each buffer exactly.
// v2 is each size in tuple codec version 2, whose kinds and field names
// were always literal; DESIGN.md §8 gives both, and each size in the
// fixed-width format before them.
func TestEncodedSizes(t *testing.T) {
	// An emu_fields gradient announcement: a relay 23 hops out re-sends
	// field f7 of source n5050 with its parent named.
	g := pattern.NewGradient("f7")
	g.SetID(tuple.ID{Node: "n5050", Seq: 1})
	g.Val = 23
	// A route3_msg message leaving n0 for n2, two hops downhill, 12 s
	// into the run.
	d := pattern.NewDownhill("inbox",
		tuple.I("seq", 5000),
		tuple.I("from", 12_000_000_000),
		tuple.S("pad", strings.Repeat("x", 64)))
	d.SetID(tuple.ID{Node: "n0", Seq: 5001})
	d.Best = 2
	// A converged node's digest of 1,000 maintained structures.
	digest := make([]DigestEntry, 1000)
	for i := range digest {
		digest[i] = DigestEntry{ID: tuple.ID{Node: "n0042", Seq: uint64(i + 1)}, Ver: 1, Hop: 3,
			Maintained: true, Value: 3, Parent: "n0041"}
	}
	tests := []struct {
		name     string
		msg      Message
		v2, want int
	}{
		{"gradient announcement", Message{Type: MsgTuple, Hop: 23, Ver: 1, Parent: "n5051", Tuple: g}, 78, 40},
		{"retract", Message{Type: MsgRetract, ID: g.ID()}, 16, 16},
		{"downhill message", Message{Type: MsgTuple, Hop: 0, Tuple: d}, 169, 135},
		{"1,000-entry digest", Message{Type: MsgDigest, Digest: digest}, 18_883, 18_883},
	}
	for _, tt := range tests {
		data, err := Encode(tt.msg)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if len(data) != tt.want {
			t.Errorf("%s = %d bytes, want %d, %d in codec v2 (update DESIGN.md §8 if this is intended)", tt.name, len(data), tt.want, tt.v2)
		}
		if cap(data) != len(data) {
			t.Errorf("%s: buffer capacity %d for %d bytes: Encode must size the frame exactly", tt.name, cap(data), len(data))
		}
	}
}

// TestDecodeRejectsHostileVarints feeds sealed frames whose varints lie:
// each fails with ErrShort or ErrTooLarge before any allocation is
// sized from the value.
func TestDecodeRejectsHostileVarints(t *testing.T) {
	r := newWireRegistry(t)
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // 11 bytes
	hdr := func(typ MsgType, rest ...byte) []byte {
		return seal(append([]byte{wireVersion, byte(typ), 0, 0}, rest...))
	}
	tests := []struct {
		name string
		give []byte
		want error
	}{
		{"truncated hop", seal([]byte{wireVersion, byte(MsgRetract), 0x80, 0x80}), ErrShort},
		{"overlong hop", seal(append([]byte{wireVersion, byte(MsgRetract)}, overlong...)), ErrTooLarge},
		{"hop past uint16", seal([]byte{wireVersion, byte(MsgRetract), 0x80, 0x80, 0x04, 0}), ErrTooLarge},
		{"overlong parent length", seal(append([]byte{wireVersion, byte(MsgRetract), 0}, overlong...)), ErrTooLarge},
		{"truncated tuple version", hdr(MsgTuple, 0x80), ErrShort},
		{"tuple version past uint32", hdr(MsgTuple, 0x80, 0x80, 0x80, 0x80, 0x10), ErrTooLarge},
		{"overlong retract length", hdr(MsgRetract, overlong...), ErrTooLarge},
		{"retract length past body", hdr(MsgRetract, 8, 'n', '#', '1'), ErrShort},
		{"overlong digest count", hdr(MsgDigest, overlong...), ErrTooLarge},
		// Three entries claimed, at least 15 bytes, behind 14.
		{"digest count × entry past body", hdr(MsgDigest, 3, 0, 1, 'a', 1, 1, 1, 0, 1, 'b', 2, 1, 1, 0, 1), ErrShort},
		{"digest id length past body", hdr(MsgDigest, 1, 0, 9, 'a', 1, 1, 1), ErrShort},
		{"truncated digest seq", hdr(MsgDigest, 1, 0, 1, 'a', 0x80, 0x80, 0x80, 0x80, 0x80), ErrShort},
		{"digest version past uint32", hdr(MsgDigest, 1, 0, 1, 'a', 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0), ErrTooLarge},
		{"digest hop past uint16", hdr(MsgDigest, 1, 0, 1, 'a', 1, 1, 0x80, 0x80, 0x04), ErrTooLarge},
		{"pull count past max", hdr(MsgPull, 0x81, 0x80, 0x01), ErrTooLarge},
		{"pull count × id past body", hdr(MsgPull, 3, 1, 'a', 1, 0), ErrShort},
		{"overlong pull seq", hdr(MsgPull, append([]byte{1, 1, 'a'}, overlong...)...), ErrTooLarge},
		{"batch count past max", hdr(MsgBatch, 0x81, 0x04), ErrTooLarge},
		{"batch count × entry past body", hdr(MsgBatch, 2, 8, 0, 0, 0, 0, 0, 0, 0, 0), ErrShort},
		{"batch entry length past body", hdr(MsgBatch, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0), ErrShort},
		{"overlong partial id length", hdr(MsgPartial, overlong...), ErrTooLarge},
	}
	for _, tt := range tests {
		var m Message
		if err := DecodeInto(r, tt.give, &m); !errors.Is(err, tt.want) {
			t.Errorf("%s: DecodeInto = %v, want %v", tt.name, err, tt.want)
		}
		if cap(m.Digest) != 0 || cap(m.Want) != 0 || cap(m.Batch) != 0 {
			t.Errorf("%s: decode grew scratch (digest %d, want %d, batch %d)", tt.name, cap(m.Digest), cap(m.Want), cap(m.Batch))
		}
	}

	// A digest value in the compact float form past 2^53, or cut off.
	for name, value := range map[string][]byte{
		"integral value past 2^53": {6, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
		"truncated float bits":     {3, 0, 0, 0},
	} {
		body := append([]byte{1, 1, 1, 'a', 1, 1, 1}, value...)
		if _, err := Decode(r, hdr(MsgDigest, body...)); !errors.Is(err, tuple.ErrTooLarge) && !errors.Is(err, tuple.ErrShortBuffer) {
			t.Errorf("digest %s: Decode = %v, want a tuple bounds error", name, err)
		}
	}
}

// TestPreviousFormatIsErrVersion: frames of the fixed-width format,
// untraced (version 1) and traced (version 2), decode as ErrVersion even
// with a valid checksum, and a current frame carrying a tuple of codec
// version 2, its names literal, as tuple.ErrBadVersion.
func TestPreviousFormatIsErrVersion(t *testing.T) {
	r := newWireRegistry(t)
	for _, ver := range []byte{1, 2} {
		// A version-1 withdraw of n#3: header, 4-byte id length, id.
		old := seal([]byte{ver, byte(MsgWithdraw), 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 'n', '#', '3'})
		if _, err := Decode(r, old); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d frame: Decode = %v, want ErrVersion", ver, err)
		}
	}
	// Hop 0, no parent, Ver 1, then tuple n#3 of kind "tota:flood" with
	// the field name = "f".
	v2 := append([]byte{wireVersion, byte(MsgTuple), 0, 0, 1, 2, 10}, "tota:flood"...)
	v2 = append(append(v2, 1, 'n', 3, 1, 4), "name"...)
	v2 = seal(append(v2, byte(tuple.KindString), 1, 'f'))
	if _, err := Decode(r, v2); !errors.Is(err, tuple.ErrBadVersion) {
		t.Errorf("codec version 2 tuple: Decode = %v, want tuple.ErrBadVersion", err)
	}
}

// TestDigestValueCompactForm: digest values take the tuple codec's
// compact float form, and every kind of value round-trips to identical
// bits.
func TestDigestValueCompactForm(t *testing.T) {
	r := newWireRegistry(t)
	for _, v := range []float64{0, 23, -7, math.Inf(1), math.Inf(-1), 1.5, math.Copysign(0, -1), math.NaN(), 1 << 53, 1<<53 + 2} {
		e := DigestEntry{ID: tuple.ID{Node: "a", Seq: 1}, Maintained: true, Value: v}
		data, err := Encode(Message{Type: MsgDigest, Digest: []DigestEntry{e}})
		if err != nil {
			t.Fatal(err)
		}
		if want := DigestOverhead - 1 + DigestEntrySize(&e); len(data) != want {
			t.Errorf("%v: digest = %d bytes, want %d", v, len(data), want)
		}
		got, err := Decode(r, data)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if math.Float64bits(got.Digest[0].Value) != math.Float64bits(v) {
			t.Errorf("value %v decoded as %v", v, got.Digest[0].Value)
		}
	}
}
