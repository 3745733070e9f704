package tuple

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newTestRegistry(t *testing.T, kinds ...string) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, k := range kinds {
		if err := r.Register(k, factoryFor(k)); err != nil {
			t.Fatalf("Register(%q): %v", k, err)
		}
	}
	return r
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := newTestRegistry(t, "k")
	orig := newTestTuple("k", Content{
		S("s", "héllo"),
		I("i", -12345),
		F("f", math.Pi),
		B("b", true),
		Bin("raw", []byte{0, 1, 2, 255}),
		{Value: "positional"},
	})
	orig.SetID(ID{Node: "node-a", Seq: 42})

	data, err := Encode(orig)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(r, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind() != "k" {
		t.Errorf("Kind = %q", got.Kind())
	}
	if got.ID() != orig.ID() {
		t.Errorf("ID = %v, want %v", got.ID(), orig.ID())
	}
	if !got.Content().Equal(orig.Content()) {
		t.Errorf("Content = %v, want %v", got.Content(), orig.Content())
	}
}

func TestEncodeRejectsInvalidContent(t *testing.T) {
	bad := newTestTuple("k", Content{{Name: "x", Value: struct{}{}}})
	if _, err := Encode(bad); err == nil {
		t.Error("Encode accepted unsupported field type")
	}
}

func TestDecodeErrors(t *testing.T) {
	r := newTestRegistry(t, "k")
	good, err := Encode(newTestTuple("k", Content{S("a", "b")}))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	t.Run("empty buffer", func(t *testing.T) {
		if _, err := Decode(r, nil); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("err = %v, want ErrShortBuffer", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{99}, good[1:]...)
		if _, err := Decode(r, bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for i := 1; i < len(good); i++ {
			if _, err := Decode(r, good[:i]); err == nil {
				t.Errorf("Decode of %d-byte prefix succeeded", i)
			}
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		other, err := Encode(newTestTuple("mystery", nil))
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if _, err := Decode(r, other); err == nil {
			t.Error("Decode of unregistered kind succeeded")
		}
	})
}

func TestRegistryDuplicateAndEmpty(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("k", factoryFor("k")); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := r.Register("k", factoryFor("k")); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := r.Register("", factoryFor("")); err == nil {
		t.Error("empty-kind Register succeeded")
	}
	if err := r.Register("nilf", nil); err == nil {
		t.Error("nil-factory Register succeeded")
	}
	if ks := r.Kinds(); len(ks) != 1 || ks[0] != "k" {
		t.Errorf("Kinds = %v", ks)
	}
}

func TestRegistryClone(t *testing.T) {
	r := newTestRegistry(t, "k")
	orig := newTestTuple("k", Content{Bin("b", []byte{1, 2})})
	orig.SetID(ID{Node: "n", Seq: 1})
	cp, err := r.Clone(orig)
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	cp.Content()[0].Value.([]byte)[0] = 9
	if orig.Content()[0].Value.([]byte)[0] != 1 {
		t.Error("Clone shares content with original")
	}
	if cp.ID() != orig.ID() {
		t.Errorf("Clone changed id: %v", cp.ID())
	}
}

// TestCodecRoundTripQuick property-tests the codec over randomly
// generated contents.
func TestCodecRoundTripQuick(t *testing.T) {
	r := newTestRegistry(t, "q")
	f := func(name string, s string, i int64, fl float64, b bool, raw []byte, node string, seq uint64) bool {
		c := Content{
			{Name: "", Value: s},
			{Name: "", Value: i},
			{Name: "", Value: fl},
			{Name: "", Value: b},
			{Name: "", Value: raw},
		}
		if name != "" {
			c = append(c, Field{Name: name, Value: s})
		}
		orig := newTestTuple("q", c)
		orig.SetID(ID{Node: NodeID(node), Seq: seq})
		data, err := Encode(orig)
		if err != nil {
			return false
		}
		got, err := Decode(r, data)
		if err != nil {
			return false
		}
		return got.ID() == orig.ID() && got.Content().Equal(orig.Content())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIDRoundTrip(t *testing.T) {
	tests := []ID{
		{Node: "a", Seq: 0},
		{Node: "node-17", Seq: 18446744073709551615},
		{Node: "with#hash", Seq: 9},
	}
	for _, id := range tests {
		got, err := ParseID(id.String())
		if err != nil {
			t.Errorf("ParseID(%q): %v", id.String(), err)
			continue
		}
		if got != id {
			t.Errorf("ParseID(%q) = %v, want %v", id.String(), got, id)
		}
	}
}

func TestParseIDErrors(t *testing.T) {
	r := NewRegistry()
	for _, s := range []string{"", "nohash", "a#notanumber", "a#-1", "a#", "a#+1", "a#1_0", "a#18446744073709551616"} {
		if _, err := ParseID(s); err == nil {
			t.Errorf("ParseID(%q) succeeded", s)
		}
		if _, err := r.ParseID([]byte(s)); err == nil {
			t.Errorf("Registry.ParseID(%q) succeeded", s)
		}
	}
}

// TestRegistryParseID: the byte form parses as ParseID does.
func TestRegistryParseID(t *testing.T) {
	r := NewRegistry()
	for _, s := range []string{"a#0", "#7", "with#hash#9", "node-17#18446744073709551615", "x#007"} {
		want, err := ParseID(s)
		if err != nil {
			t.Fatalf("ParseID(%q): %v", s, err)
		}
		if got, err := r.ParseID([]byte(s)); err != nil || got != want {
			t.Errorf("Registry.ParseID(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

// TestReadEnvelope: the envelope names the kind and id, and reports the
// value field only where every maintained kind keeps it — one float
// named ValueField among the trailing "_" fields.
func TestReadEnvelope(t *testing.T) {
	r := NewRegistry()
	tests := []struct {
		name string
		c    Content
		want float64
		has  bool
	}{
		{"canonical", Content{S("name", "g"), F(ValueField, 2.5), F("_step", 1)}, 2.5, true},
		{"value last", Content{S("name", "g"), F("_step", 1), F(ValueField, 3)}, 3, true},
		{"no value", Content{S("name", "g"), F("_step", 1)}, 0, false},
		{"not a float", Content{S("name", "g"), I(ValueField, 2)}, 0, false},
		{"before an app field", Content{F(ValueField, 2), S("name", "g")}, 0, false},
		{"twice", Content{S("name", "g"), F(ValueField, 2), F(ValueField, 3)}, 0, false},
		{"twice, one not a float", Content{S("name", "g"), S(ValueField, "x"), F(ValueField, 3)}, 0, false},
	}
	for _, tt := range tests {
		tup := newTestTuple("k", tt.c)
		tup.SetID(ID{Node: "n", Seq: 3})
		// Encode validates against duplicate names; build the twice
		// cases by hand from a valid encoding's layout.
		data := encodeUnchecked(tup)
		env, err := ReadEnvelope(r, data)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if env.Kind != "k" || env.ID != tup.ID() || env.HasValue != tt.has || tt.has && env.Value != tt.want {
			t.Errorf("%s: envelope %+v, want value %g (%v)", tt.name, env, tt.want, tt.has)
		}
	}
	good := encodeUnchecked(newTestTuple("k", Content{S("name", "g")}))
	for _, bad := range [][]byte{nil, good[:len(good)-1], append([]byte{9}, good[1:]...)} {
		_, _, _, partsErr := DecodeParts(bad)
		if _, err := ReadEnvelope(r, bad); err == nil || partsErr == nil {
			t.Errorf("%x: ReadEnvelope %v, DecodeParts %v; want both to reject", bad, err, partsErr)
		}
	}
}

// encodeUnchecked is AppendEncode without content validation, for
// inputs a well-behaved encoder never produces.
func encodeUnchecked(t Tuple) []byte { return appendTuple(nil, t, t.Content()) }

func TestIDIsZero(t *testing.T) {
	if !(ID{}).IsZero() {
		t.Error("zero ID not IsZero")
	}
	if (ID{Node: "n"}).IsZero() {
		t.Error("non-zero ID reported IsZero")
	}
}

// TestDecodeRejectsHostileVarints: a varint that is cut off, overlong
// (11 bytes, past 64 bits), or claims more than the bytes behind it
// fails DecodeParts and ReadEnvelope alike with ErrShortBuffer or
// ErrTooLarge (TestDecodeHostileCountAllocs: with no allocation sized
// from the claimed value), and so does a name reference past the name
// table. Names are written as literals (len<<1) or references
// (idx<<1 | 1).
func TestDecodeRejectsHostileVarints(t *testing.T) {
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	head := []byte{codecVersion, 1 << 1, 'k', 1, 'n', 7} // kind k, id n#7
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	last := byte(len(names)-1)<<1 | 1
	tests := []struct {
		name string
		give []byte
		want error
	}{
		{"truncated kind length", []byte{codecVersion, 0x80}, ErrShortBuffer},
		{"kind length past body", []byte{codecVersion, 9 << 1, 'k'}, ErrShortBuffer},
		{"overlong node length", cat([]byte{codecVersion, 1 << 1, 'k'}, overlong), ErrTooLarge},
		{"overlong seq", cat([]byte{codecVersion, 1 << 1, 'k', 1, 'n'}, overlong), ErrTooLarge},
		{"truncated field count", cat(head, []byte{0x80}), ErrShortBuffer},
		{"field count past body", cat(head, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}), ErrShortBuffer},
		{"field count × minimum field past body", cat(head, []byte{3, 0, 7, 0, 7}), ErrShortBuffer},
		{"name length past body", cat(head, []byte{1, 5 << 1, 'x'}), ErrShortBuffer},
		{"string length past body", cat(head, []byte{1, 1 << 1, 's', byte(KindString), 9, 'x'}), ErrShortBuffer},
		{"overlong int", cat(head, []byte{1, 1 << 1, 'i', byte(KindInt)}, overlong), ErrTooLarge},
		{"truncated int", cat(head, []byte{1, 1 << 1, 'i', byte(KindInt), 0xff}), ErrShortBuffer},
		{"integral float past 2^53", cat(head, []byte{1, 1 << 1, 'f', floatInt, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}), ErrTooLarge},
		{"truncated float bits", cat(head, []byte{1, 1 << 1, 'f', floatBits, 0, 0}), ErrShortBuffer},
		{"reference to the last name", cat(head, []byte{1, last, floatPosInf}), nil},
		{"kind reference past the table", cat([]byte{codecVersion, last + 2, 1, 'n', 7, 0}), ErrTooLarge},
		{"name reference past the table", cat(head, []byte{1, last + 2, floatPosInf}), ErrTooLarge},
	}
	r := NewRegistry()
	for _, tt := range tests {
		if _, _, c, err := DecodeParts(tt.give); !errors.Is(err, tt.want) {
			t.Errorf("%s: DecodeParts = %v, want %v", tt.name, err, tt.want)
		} else if err == nil && c[0].Name != names[len(names)-1] {
			t.Errorf("%s: decoded name %q, want %q", tt.name, c[0].Name, names[len(names)-1])
		}
		if _, err := ReadEnvelope(r, tt.give); !errors.Is(err, tt.want) {
			t.Errorf("%s: ReadEnvelope = %v, want %v", tt.name, err, tt.want)
		}
	}
}

// TestCompactFloatSizes: integral floats within ±2^53 take a tag and a
// short varint, ±Inf a bare tag, and anything else a tag and 8 bytes.
func TestCompactFloatSizes(t *testing.T) {
	for _, tt := range []struct {
		v    float64
		want int
	}{
		{0, 2}, {1, 2}, {23, 2}, {-64, 2}, {64, 3}, {8191, 3}, {math.Inf(1), 1}, {math.Inf(-1), 1},
		{1 << 53, 9}, {-(1 << 53), 9}, {1<<53 + 2, 9}, {0.5, 9}, {math.Copysign(0, -1), 9}, {math.NaN(), 9},
	} {
		if got := len(AppendFloat(nil, tt.v)); got != tt.want || FloatSize(tt.v) != tt.want {
			t.Errorf("%v: AppendFloat wrote %d bytes, FloatSize %d, want %d", tt.v, got, FloatSize(tt.v), tt.want)
		}
	}
}
