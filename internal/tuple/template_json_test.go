package tuple

import (
	"math"
	"reflect"
	"testing"
)

func TestTemplateJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		tpl  Template
	}{
		{"match-all", MatchAll()},
		{"kind-only", Match("tota:gradient")},
		{"kind-prefix", Match("tota:*")},
		{"named-eq", Match("tota:flood", Eq(S("name", "field")))},
		{"any-field", Match("", AnyField("payload"))},
		{"any-of-kind", Match("tota:gradient", AnyOfKind("_val", KindFloat))},
		{"positional", Match("k", FieldPattern{Value: int64(7)}, FieldPattern{Any: true})},
		{"exact", Template{Kind: "k", Exact: true, Fields: []FieldPattern{Eq(B("on", true))}}},
		{"nonfinite-float", Match("k", Eq(F("_scope", math.Inf(1))))},
		{"bytes-value", Match("k", Eq(Bin("blob", []byte{0, 1, 0xfe})))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := MarshalTemplateJSON(tc.tpl)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got, err := UnmarshalTemplateJSON(data)
			if err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if !reflect.DeepEqual(normalizeTpl(got), normalizeTpl(tc.tpl)) {
				t.Fatalf("round trip changed template:\n got %#v\nwant %#v\n(json %s)", got, tc.tpl, data)
			}
		})
	}
}

// normalizeTpl maps a nil Fields slice and an empty one onto the same
// representation: matching behavior is identical, so the round trip is
// allowed to differ there.
func normalizeTpl(tpl Template) Template {
	if len(tpl.Fields) == 0 {
		tpl.Fields = nil
	}
	return tpl
}

func TestTemplateJSONMatchingSurvives(t *testing.T) {
	tpl := Match("tota:flood", Eq(S("name", "notice")))
	data, err := MarshalTemplateJSON(tpl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTemplateJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	match := newTestTuple("tota:flood", Content{S("name", "notice"), I("_ttl", 0)})
	miss := newTestTuple("tota:flood", Content{S("name", "other")})
	if !got.Matches(match) {
		t.Fatal("decoded template no longer matches the tuple the original matched")
	}
	if got.Matches(miss) {
		t.Fatal("decoded template matches a tuple the original rejected")
	}
}

func TestTemplateJSONRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"fields":[{"name":"x"}]}`, // neither any nor value
		`{"fields":[{"name":"x","any":true,"kind":"complex"}]}`, // unknown kind
	} {
		if _, err := UnmarshalTemplateJSON([]byte(bad)); err == nil {
			t.Fatalf("bad template %q decoded without error", bad)
		}
	}
}
