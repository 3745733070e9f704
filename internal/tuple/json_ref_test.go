package tuple

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// The reflective encoding/json codec that json.go's appender and scanner
// replaced, kept as the reference they are compared against: same bytes
// out, same inputs accepted, same tuples back.

type refJSONField struct {
	Name  string          `json:"name,omitempty"`
	Type  string          `json:"type"`
	Value json.RawMessage `json:"value"`
}

type refField Field

func (f refField) MarshalJSON() ([]byte, error) {
	jf := refJSONField{Name: f.Name}
	var err error
	switch v := f.Value.(type) {
	case string:
		jf.Type = "string"
		jf.Value, err = json.Marshal(v)
	case int64:
		jf.Type = "int"
		jf.Value, err = json.Marshal(v)
	case float64:
		jf.Type = "float"
		if math.IsInf(v, 0) || math.IsNaN(v) {
			jf.Value, err = json.Marshal(strconv.FormatFloat(v, 'g', -1, 64))
		} else {
			jf.Value, err = json.Marshal(v)
		}
	case bool:
		jf.Type = "bool"
		jf.Value, err = json.Marshal(v)
	case []byte:
		jf.Type = "bytes"
		jf.Value, err = json.Marshal(base64.StdEncoding.EncodeToString(v))
	default:
		return nil, fmt.Errorf("%w (%T)", ErrBadValue, f.Value)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(jf)
}

func (f *refField) UnmarshalJSON(data []byte) error {
	var jf refJSONField
	if err := json.Unmarshal(data, &jf); err != nil {
		return err
	}
	f.Name = jf.Name
	switch jf.Type {
	case "string":
		var v string
		if err := json.Unmarshal(jf.Value, &v); err != nil {
			return err
		}
		f.Value = v
	case "int":
		var v int64
		if err := json.Unmarshal(jf.Value, &v); err != nil {
			return err
		}
		f.Value = v
	case "float":
		var v float64
		if err := json.Unmarshal(jf.Value, &v); err != nil {
			var s string
			if serr := json.Unmarshal(jf.Value, &s); serr != nil {
				return err
			}
			pv, perr := strconv.ParseFloat(s, 64)
			if perr != nil {
				return fmt.Errorf("tuple: bad float field %q: %w", s, perr)
			}
			v = pv
		}
		f.Value = v
	case "bool":
		var v bool
		if err := json.Unmarshal(jf.Value, &v); err != nil {
			return err
		}
		f.Value = v
	case "bytes":
		var s string
		if err := json.Unmarshal(jf.Value, &s); err != nil {
			return err
		}
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return fmt.Errorf("tuple: bad base64 bytes field: %w", err)
		}
		f.Value = b
	default:
		return fmt.Errorf("tuple: unknown json field type %q", jf.Type)
	}
	return nil
}

type refJSONTuple struct {
	Kind    string     `json:"kind"`
	ID      string     `json:"id"`
	Content []refField `json:"content"`
}

func refContent(c Content) []refField {
	if c == nil {
		return nil
	}
	out := make([]refField, len(c))
	for i, f := range c {
		out[i] = refField(f)
	}
	return out
}

func refMarshalTupleJSON(t Tuple) ([]byte, error) {
	if err := t.Content().Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(refJSONTuple{Kind: t.Kind(), ID: t.ID().String(), Content: refContent(t.Content())})
}

func refUnmarshalTupleJSON(r *Registry, data []byte) (Tuple, error) {
	var jt refJSONTuple
	if err := json.Unmarshal(data, &jt); err != nil {
		return nil, err
	}
	id, err := ParseID(jt.ID)
	if err != nil {
		return nil, err
	}
	var c Content
	if jt.Content != nil {
		c = make(Content, len(jt.Content))
		for i, f := range jt.Content {
			c[i] = Field(f)
		}
	}
	return r.New(jt.Kind, id, c)
}

// jsonTestRegistry knows the kinds the JSON tests and fuzz seeds use.
func jsonTestRegistry() *Registry {
	r := NewRegistry()
	for _, k := range []string{"k", "jk", "héllo<k>"} {
		r.MustRegister(k, factoryFor(k))
	}
	return r
}

// jsonCorpus is hand-written JSON the two decoders must agree on,
// accepted or not; it also seeds FuzzTupleJSON.
var jsonCorpus = []string{
	`{"kind":"k","id":"n#1","content":[]}`,
	`{"kind":"k","id":"n#1","content":null}`,
	`{"kind":"k","id":"n#1"}`,
	`{"kind":"k","id":"n0#12","content":[{"name":"name","type":"string","value":"hot"},{"name":"seq","type":"int","value":41},{"name":"_lease","type":"float","value":0}]}`,
	`  {"kind":"k", "id" : "n#1" ,"content": [ {"type":"int","value":-0} , {"type":"bool","value":true} ] }  `,
	`{"content":[{"value":1.5e3,"type":"float","name":"reordered"}],"id":"n#2","kind":"k"}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":"+Inf"},{"type":"float","value":"-Inf"},{"type":"float","value":"NaN"},{"type":"float","value":"1.5"}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":1e999}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":"wat"}]}`,
	`{"kind":"k","id":"n#1","content":[{"name":"raw","type":"bytes","value":"AP8H"},{"type":"bytes","value":""},{"type":"bytes","value":null}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"bytes","value":"%%%"}]}`,
	`{"kind":"k","id":"n#1","content":[{"name":"s","type":"string","value":"h\u00e9llo \"q\" \\ \n <&> \ud83d\ude00 \ud800"}]}`,
	`{"kind":"héllo<k>","id":"nœud#7","content":[{"name":"clé","type":"string","value":"日本語"}]}`,
	"{\"kind\":\"k\",\"id\":\"n#1\",\"content\":[{\"type\":\"string\",\"value\":\"bad \xff utf8\"}]}",
	"{\"kind\":\"k\",\"id\":\"n#1\",\"content\":[{\"type\":\"string\",\"value\":\"raw \x01 control\"}]}",
	`{"kind":"k","id":"n#1","content":[{"type":"string","value":"bad \x escape"}]}`,
	`{"kind":"k","id":"n#1","extra":{"a":[1,2,{"b":"}]"}],"c":null},"content":[{"type":"int","value":1,"unit":"m","tags":["x","y"]}]}`,
	`{"kind":"k","id":"n#1","extra":{"a":[1,2},"content":[]}`,
	`{"kind":"k","id":"n#1","extra":01,"content":[]}`,
	`{"kind":"x","kind":"k","id":"n#0","id":"n#1","content":[{"type":"int","value":1}],"content":[{"type":"string","type":"int","value":"s","value":2}]}`,
	`{"kind":"k","kind":null,"id":"n#1","content":[{"name":"a","name":null,"type":"int","type":null,"value":null}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":{"a":1},"value":3}]}`,
	`{"kind":"k","id":"n#1","content":[{}],"content":[]}`, // a replaced content is still decoded
	`{"kind":"k","id":"n#1","content":5,"content":[]}`,
	`{"kind":"k","id":"n#1","content":null,"content":[{"type":"int","value":1}],"content":[]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":{"a":1}}]}`,
	`{"KIND":"k","Id":"n#1","CONTENT":[{"NAME":"a","Type":"int","VALUE":1}]}`,
	"{\"\u212aind\":\"k\",\"id\":\"n#1\",\"content\":[{\"type\":\"int\",\"value\":1}]}", // Kelvin sign folds to k
	`{"k\u0069nd":"k","id":"n#1","content":[]}`,
	`{"kind":"k","id":"n#1","content":[null]}`,
	`{"kind":"k","id":"n#1","content":[3]}`,
	`{"kind":"k","id":"n#1","content":{}}`,
	`{"kind":"k","id":"n#1","content":"abc"}`,
	`{"kind":"k","id":"n#1","content":[{}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int"}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"mystery","value":1}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":"5"}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":1.0}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":1e3}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":01}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":+1}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":-}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":9223372036854775808}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":12x}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":1.}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":.5}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":1e}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":-1.25E-7}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"float","value":true}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"bool","value":3}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"bool","value":truex}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"bool","value":nul}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"string","value":3}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":5,"value":3}]}`,
	`{"kind":"k","id":"n#1","content":[{"name":5,"type":"int","value":3}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":1},]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":1,}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int","value":1}{"type":"int","value":2}]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"int" "value":1}]}`,
	`{"kind":"k","id":"n#1","content":[{"a":1,"a":1,"type":"int","value":1},{"name":"a","type":"int","value":1},{"name":"a","type":"int","value":2}]}`,
	`{"kind":"k","id":"n#1","content":[]} x`,
	"{\"kind\":\"k\",\"id\":\"n#1\"}\x00", "{\"kind\":\"k\"\x00,\"id\":\"n#1\"}", "{\"kind\":\"k\",\"id\":\"n#1\",\"content\":[\x00]}",
	`{"kind":"k","id":"n#1","content":[]`,
	`{"kind":"k","id":"n#1","content":[]}}`,
	`{"kind":5,"id":"n#1","content":[]}`,
	`{"kind":"k","id":5,"content":[]}`,
	`{"kind":"nope","id":"n#1","content":[]}`,
	`{"kind":"k","id":"malformed","content":[]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"string","value":"unterminated]}`,
	`{"kind":"k","id":"n#1","content":[{"type":"string","value":"trailing backslash\`,
	`null`, ` null `, `nul`, `{}`, `[]`, `3`, `"s"`, `{`, ``, `{"kind"}`, `{"kind":}`, `{,}`, `{"a":1,}`,
}

// TestTupleJSONDecodeMatchesReference runs the corpus through both
// decoders: same verdict, same tuple, same bytes when re-encoded.
func TestTupleJSONDecodeMatchesReference(t *testing.T) {
	r := jsonTestRegistry()
	accepted := 0
	for _, in := range jsonCorpus {
		if checkDecodeAgainstReference(t, r, []byte(in)) {
			accepted++
		}
	}
	if accepted < 15 {
		t.Errorf("only %d corpus entries accepted: the corpus no longer exercises the accept side", accepted)
	}
}

// checkDecodeAgainstReference compares the scanner with the reference
// on one input and reports whether they accepted it.
func checkDecodeAgainstReference(t *testing.T, r *Registry, data []byte) bool {
	t.Helper()
	want, wantErr := refUnmarshalTupleJSON(r, data)
	got, gotErr := UnmarshalTupleJSON(r, data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("verdicts differ on %q:\n reference: %v\n   scanner: %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		return false
	}
	wc, gc := want.Content(), got.Content()
	if got.Kind() != want.Kind() || got.ID() != want.ID() || !gc.Equal(wc) || (gc == nil) != (wc == nil) {
		t.Fatalf("tuples differ on %q:\n reference: %s %v %v\n   scanner: %s %v %v",
			data, want.Kind(), want.ID(), wc, got.Kind(), got.ID(), gc)
	}
	if cap(gc) != len(gc) {
		t.Fatalf("content decoded from %q has len %d, cap %d: not sized exactly", data, len(gc), cap(gc))
	}
	wantOut, wantErr := refMarshalTupleJSON(want)
	gotOut, gotErr := MarshalTupleJSON(got)
	if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(wantOut, gotOut) {
		t.Fatalf("re-encoding differs on %q:\n reference: %s (%v)\n  appender: %s (%v)", data, wantOut, wantErr, gotOut, gotErr)
	}
	// The request route: a bare content array through Content.UnmarshalJSON.
	var viaJSON struct{ Content Content }
	if err := json.Unmarshal(data, &viaJSON); err != nil || !viaJSON.Content.Equal(wc) || (viaJSON.Content == nil) != (wc == nil) {
		t.Fatalf("Content.UnmarshalJSON differs on %q: %v, %v (want %v)", data, err, viaJSON.Content, wc)
	}
	return true
}

// TestTupleJSONEncodeMatchesReference is the byte-identity table: the
// appender against json.Marshal over the parent's struct codec.
func TestTupleJSONEncodeMatchesReference(t *testing.T) {
	contents := []Content{
		nil,
		{},
		{S("name", "hot"), I("seq", 41), I("t", 1727777777123456789), S("pad", strings.Repeat("aZ9", 21)), I("_ttl", 0), F("_lease", 0)},
		{{Value: "positional"}, {Value: int64(-7)}, {Value: 2.5}, {Value: false}, {Value: []byte{}}},
		{S("s", "héllo \"q\" \\ \n\t\x00\x1f <tag> & \u2028\u2029 \x7f"), S("bad", "a\xffb\xc0"), S("", "")},
		{I("min", math.MinInt64), I("max", math.MaxInt64)},
		{F("pi", math.Pi), F("tiny", 1e-7), F("edge", 1e-6), F("big", 1e21), F("below", 1e20), F("neg0", math.Copysign(0, -1)),
			F("max", math.MaxFloat64), F("denorm", math.SmallestNonzeroFloat64), F("f32", float64(float32(0.1))), F("e9", 1.5e-9)},
		{F("pinf", math.Inf(1)), F("ninf", math.Inf(-1)), F("nan", math.NaN())},
		{B("t", true), B("f", false)},
		{Bin("raw", []byte{0, 255, 7}), Bin("nil", nil), Bin("long", bytes.Repeat([]byte{0xfb, 0xff}, 40))},
		{S("<name>&", "v"), S("nœud", "v")},
	}
	for _, kind := range []string{"k", "héllo<k>"} {
		for _, c := range contents {
			tt := newTestTuple(kind, c)
			tt.SetID(ID{Node: "n<0>\"é", Seq: 18446744073709551615})
			want, err := refMarshalTupleJSON(tt)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := AppendTupleJSON([]byte("prefix"), tt)
			if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Errorf("AppendTupleJSON differs (%v):\n got %s\nwant prefix%s", err, got, want)
			}
			wantC, _ := json.Marshal(refContent(c))
			gotC, err := json.Marshal(c)
			if err != nil || !bytes.Equal(gotC, wantC) {
				t.Errorf("json.Marshal(Content) differs (%v):\n got %s\nwant %s", err, gotC, wantC)
			}
			checkDecodeAgainstReference(t, jsonTestRegistry(), want)
		}
	}
	for _, c := range []Content{{{Name: "x", Value: struct{}{}}}, {S("dup", "a"), S("dup", "b")}, {{Name: "plain", Value: 3}}} {
		if _, err := MarshalTupleJSON(newTestTuple("k", c)); err == nil {
			t.Errorf("marshaled invalid content %v", c)
		}
	}
}

// TestTupleJSONKeptDivergences pins the two places where the scanner
// deliberately differs from encoding/json (DESIGN.md §15).
func TestTupleJSONKeptDivergences(t *testing.T) {
	r := jsonTestRegistry()
	// 1. encoding/json bounds nesting at 10,000 levels over the whole
	// document; the scanner hands an unread member to json.Valid on its
	// own, so the levels above it do not count.
	deep := `{"kind":"k","id":"n#1","content":[],"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`
	if _, err := refUnmarshalTupleJSON(r, []byte(deep)); err == nil {
		t.Error("reference accepted 10,001 nesting levels: the divergence is gone, drop it from DESIGN.md")
	}
	if _, err := UnmarshalTupleJSON(r, []byte(deep)); err != nil {
		t.Errorf("scanner rejected an unread member nested 10,000 deep: %v", err)
	}
	// 2. Error texts are the scanner's own, not encoding/json's.
	_, err := UnmarshalTupleJSON(r, []byte(`{"kind":"k",`))
	if err == nil || !strings.Contains(err.Error(), "tuple: json offset") {
		t.Errorf("syntax error = %v, want the scanner's offset form", err)
	}
}

// FuzzTupleJSON feeds arbitrary bytes to the scanner and the reference:
// same verdict, equal tuples, identical bytes on re-encode, no panic.
func FuzzTupleJSON(f *testing.F) {
	for _, s := range jsonCorpus {
		f.Add([]byte(s))
	}
	r := jsonTestRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgainstReference(t, r, data)
	})
}

var benchTupleSink any

// benchFlood is the rig's gw_fanout tuple: 367 bytes of JSON.
func benchFlood() *testTuple {
	tt := newTestTuple("k", Content{S("name", "hot"), I("seq", 4100), I("t", 1727777777123456789),
		S("pad", strings.Repeat("aZ9", 21)+"x"), I("_ttl", 0), F("_lease", 0)})
	tt.SetID(ID{Node: "127.0.0.1:40000", Seq: 4101})
	return tt
}

func BenchmarkTupleJSONMarshal(b *testing.B) {
	tt := benchFlood()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTupleSink, _ = MarshalTupleJSON(tt)
	}
}

func BenchmarkTupleJSONUnmarshal(b *testing.B) {
	data, err := MarshalTupleJSON(benchFlood())
	if err != nil {
		b.Fatal(err)
	}
	r := jsonTestRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTupleSink, _ = UnmarshalTupleJSON(r, data)
	}
}
