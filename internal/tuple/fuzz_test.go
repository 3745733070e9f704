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
	f.Add([]byte{codecVersion, 0, 0, 0, 1, 'k'})

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
