package tuple

import (
	"math"
	"testing"
)

// FuzzDecodeParts feeds arbitrary bytes to the tuple codec: it must
// never panic, anything it accepts must re-encode losslessly, and
// ReadEnvelope must accept and reject exactly what it does, reading the
// same kind, id and value field.
func FuzzDecodeParts(f *testing.F) {
	seed := newTestTuple("k", Content{
		S("s", "x"),
		I("i", -3),
		F("f", 1.5),
		B("b", true),
		Bin("raw", []byte{1, 2}),
	})
	seed.SetID(ID{Node: "n", Seq: 7})
	data, err := Encode(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	maintained := newTestTuple("g", Content{S("name", "f"), F(ValueField, 2), F("_step", 1)})
	maintained.SetID(ID{Node: "src", Seq: 1})
	if data, err := Encode(maintained); err == nil {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{codecVersion, 1 << 1, 'k'})
	// A field count past what the bytes behind it can hold, and an
	// overlong seq varint.
	f.Add([]byte{codecVersion, 1 << 1, 'k', 1, 'n', 7, 0xff, 0x7f})
	f.Add(append([]byte{codecVersion, 1 << 1, 'k', 1, 'n'}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	// Name references to the table's last entry and to the index after
	// it.
	last := byte(len(names)-1)<<1 | 1
	f.Add([]byte{codecVersion, 1 << 1, 'k', 1, 'n', 7, 1, last, floatPosInf})
	f.Add([]byte{codecVersion, 1 << 1, 'k', 1, 'n', 7, 1, last + 2, floatPosInf})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, id, c, err := DecodeParts(data)
		env, envErr := ReadEnvelope(nil, data)
		if (err == nil) != (envErr == nil) {
			t.Fatalf("DecodeParts error %v, ReadEnvelope error %v", err, envErr)
		}
		if err != nil {
			return
		}
		if env.Kind != kind || env.ID != id {
			t.Fatalf("envelope %+v, parts %q %v", env, kind, id)
		}
		if env.HasValue {
			f, _ := c.Get(ValueField)
			if v, ok := f.Value.(float64); !ok || math.Float64bits(v) != math.Float64bits(env.Value) {
				t.Fatalf("envelope value %v, content field %v", env.Value, f)
			}
		}
		// Accepted input: rebuilding and re-encoding must succeed and
		// decode back to the same parts.
		tt := newTestTuple(kind, c)
		tt.SetID(id)
		out, err := Encode(tt)
		if err != nil {
			// Contents with duplicate names decode fine but fail
			// validation on encode; that asymmetry is acceptable.
			return
		}
		kind2, id2, c2, err := DecodeParts(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if kind2 != kind || id2 != id || !c2.Equal(c) {
			t.Fatalf("round trip changed parts: %v %v %v vs %v %v %v",
				kind, id, c, kind2, id2, c2)
		}
	})
}

// FuzzCompactFloat round-trips arbitrary float64 bit patterns through
// the compact float form: every pattern, NaN payloads and -0 included,
// decodes to identical bits, FloatSize counts exactly the bytes
// AppendFloat writes, and ReadFloat consumes exactly them.
func FuzzCompactFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 23, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2), 1<<53 - 1, -(1<<53 - 1),
		0.5, math.MaxFloat64, math.Pi,
	} {
		f.Add(math.Float64bits(v))
	}
	// NaNs: the canonical one, a signalling payload, a negative one.
	f.Add(math.Float64bits(math.NaN()))
	f.Add(uint64(0x7ff0000000000001))
	f.Add(uint64(0xfff8000000000abc))

	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		b := AppendFloat([]byte{0xaa}, v)
		if len(b)-1 != FloatSize(v) {
			t.Fatalf("%#x: AppendFloat wrote %d bytes, FloatSize says %d", bits, len(b)-1, FloatSize(v))
		}
		got, n, err := ReadFloat(append(b[1:], 0xbb))
		if err != nil || n != len(b)-1 {
			t.Fatalf("%#x: ReadFloat = %v, %d bytes, %v; want %d bytes", bits, got, n, err, len(b)-1)
		}
		if math.Float64bits(got) != bits {
			t.Fatalf("%#x decoded as %#x", bits, math.Float64bits(got))
		}
	})
}
