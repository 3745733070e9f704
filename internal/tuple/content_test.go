package tuple

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestFieldKind(t *testing.T) {
	tests := []struct {
		name string
		give Field
		want Kind
	}{
		{name: "string", give: S("a", "x"), want: KindString},
		{name: "int", give: I("a", 7), want: KindInt},
		{name: "float", give: F("a", 1.5), want: KindFloat},
		{name: "bool", give: B("a", true), want: KindBool},
		{name: "bytes", give: Bin("a", []byte{1}), want: KindBytes},
		{name: "unsupported", give: Field{Name: "a", Value: 3.0 + 0i}, want: 0},
		{name: "plain int is unsupported", give: Field{Name: "a", Value: int(3)}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Kind(); got != tt.want {
				t.Errorf("Kind() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		give Kind
		want string
	}{
		{KindString, "string"},
		{KindInt, "int"},
		{KindFloat, "float"},
		{KindBool, "bool"},
		{KindBytes, "bytes"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestFieldEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Field
		want bool
	}{
		{name: "same string", a: S("k", "v"), b: S("k", "v"), want: true},
		{name: "different value", a: S("k", "v"), b: S("k", "w"), want: false},
		{name: "different name", a: S("k", "v"), b: S("j", "v"), want: false},
		{name: "different kind", a: I("k", 1), b: F("k", 1), want: false},
		{name: "bytes equal", a: Bin("k", []byte{1, 2}), b: Bin("k", []byte{1, 2}), want: true},
		{name: "bytes differ", a: Bin("k", []byte{1, 2}), b: Bin("k", []byte{1, 3}), want: false},
		{name: "nan equals nan", a: F("k", math.NaN()), b: F("k", math.NaN()), want: true},
		{name: "floats equal", a: F("k", 2.5), b: F("k", 2.5), want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Errorf("Equal (sym) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestContentValidate(t *testing.T) {
	// many has more fields than Validate compares pairwise, its last
	// name repeating its first.
	many := make(Content, 2*pairwiseFields)
	for i := range many {
		many[i] = I(fmt.Sprintf("f%d", i), int64(i))
	}
	manyDup := append(slices.Clone(many), S("f0", "again"))
	tests := []struct {
		name    string
		give    Content
		wantErr bool
	}{
		{name: "empty", give: nil, wantErr: false},
		{name: "ok", give: Content{S("a", "x"), I("b", 1)}, wantErr: false},
		{name: "unnamed ok", give: Content{{Value: "x"}, {Value: int64(2)}}, wantErr: false},
		{name: "bad type", give: Content{{Name: "a", Value: struct{}{}}}, wantErr: true},
		{name: "duplicate name", give: Content{S("a", "x"), I("a", 1)}, wantErr: true},
		{name: "duplicate empty names ok", give: Content{{Value: "x"}, {Value: "y"}}, wantErr: false},
		{name: "many fields ok", give: many, wantErr: false},
		{name: "many fields duplicate name", give: manyDup, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestContentAccessors(t *testing.T) {
	c := Content{S("s", "hello"), I("i", 42), F("f", 2.5), B("b", true)}
	if got := c.GetString("s"); got != "hello" {
		t.Errorf("GetString = %q", got)
	}
	if got := c.GetInt("i"); got != 42 {
		t.Errorf("GetInt = %d", got)
	}
	if got := c.GetFloat("f"); got != 2.5 {
		t.Errorf("GetFloat = %v", got)
	}
	if got := c.GetBool("b"); !got {
		t.Error("GetBool = false")
	}
	// Wrong-type and missing lookups return zero values.
	if got := c.GetString("i"); got != "" {
		t.Errorf("GetString on int field = %q", got)
	}
	if got := c.GetInt("nope"); got != 0 {
		t.Errorf("GetInt on missing = %d", got)
	}
	if _, ok := c.Get("nope"); ok {
		t.Error("Get on missing reported ok")
	}
}

func TestContentWith(t *testing.T) {
	c := Content{S("a", "x"), I("n", 1)}
	d := c.With(I("n", 2))
	if c.GetInt("n") != 1 {
		t.Error("With mutated the receiver")
	}
	if d.GetInt("n") != 2 {
		t.Errorf("With did not replace: %v", d)
	}
	e := c.With(F("new", 3))
	if len(e) != 3 || e.GetFloat("new") != 3 {
		t.Errorf("With did not append: %v", e)
	}
}

func TestContentCloneIsDeep(t *testing.T) {
	c := Content{Bin("b", []byte{1, 2, 3})}
	d := c.Clone()
	d[0].Value.([]byte)[0] = 9
	if c[0].Value.([]byte)[0] != 1 {
		t.Error("Clone shares byte slices with the original")
	}
	if Content(nil).Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestContentEqual(t *testing.T) {
	a := Content{S("a", "x"), I("b", 1)}
	b := Content{S("a", "x"), I("b", 1)}
	if !a.Equal(b) {
		t.Error("identical contents not equal")
	}
	if a.Equal(b[:1]) {
		t.Error("different lengths compared equal")
	}
	if a.Equal(Content{S("a", "x"), I("b", 2)}) {
		t.Error("different values compared equal")
	}
}

func TestContentString(t *testing.T) {
	c := Content{S("a", "x"), I("", 7), Bin("raw", []byte{0xab})}
	got := c.String()
	for _, want := range []string{`a="x"`, "7", "raw=0xab"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}
