package tuple_test

import (
	"bytes"
	"strings"
	"testing"

	"tota/internal/agg"
	"tota/internal/overlay"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/tuple"
)

// heat is examples/custompattern's tuple: a custom kind and field
// names that the name table does not hold.
type heat struct{ tuple.Base }

func (*heat) Kind() string { return "example:heat" }
func (*heat) Content() tuple.Content {
	return tuple.Content{tuple.S("source", "n1"), tuple.F("intensity", 8), tuple.F("_threshold", 1)}
}

// TestNameTable: the kind of every built-in pattern and every field
// name its constructor emits travel as name table references, so a
// pattern field added without a table entry fails here by name. The
// table holds exactly the kinds registered in DefaultRegistry, each
// once, within the 64 entries a one-byte reference can index; a custom
// kind and its names round-trip as literals.
func TestNameTable(t *testing.T) {
	if len(tuple.Names) > 64 {
		t.Errorf("name table holds %d entries; a one-byte reference indexes 64", len(tuple.Names))
	}
	tableKinds := map[string]bool{}
	for i, s := range tuple.Names {
		if got := tuple.NameIndex(s); got != i {
			t.Errorf("NameIndex(%q) = %d, want %d", s, got, i)
		}
		if strings.HasPrefix(s, "tota:") {
			tableKinds[s] = true
		}
	}
	registered := tuple.DefaultRegistry.Kinds()
	for _, k := range registered {
		if !tableKinds[k] {
			t.Errorf("registered kind %q is not in the name table", k)
		}
	}
	if len(registered) != len(tableKinds) {
		t.Errorf("name table holds %d kinds, DefaultRegistry %d: %v", len(tableKinds), len(registered), registered)
	}

	built := []tuple.Tuple{
		pattern.NewGradient("g", tuple.S("payload", "x")),
		pattern.NewFlood("f"),
		pattern.NewSpatial("s", 3),
		pattern.NewDirectional("d", space.Vector{DX: 1}, 0.5),
		pattern.NewDownhill("g"),
		pattern.NewFlock("k", 2),
		pattern.NewEraser("e", pattern.KindFlood, "f"),
		pattern.NewLocal("l"),
		pattern.NewGossip("o", 0.5),
		pattern.NewPath("p"),
		agg.NewQuery("q", agg.Sum, tuple.Selector{Kind: pattern.KindGradient, Name: "g", Field: tuple.ValueField}),
		overlay.NewKeyed(overlay.ModePut, "key"),
		overlay.NewReply("key", "n1"),
	}
	builtKinds := map[string]bool{}
	for _, tp := range built {
		builtKinds[tp.Kind()] = true
		if tuple.NameIndex(tp.Kind()) < 0 {
			t.Errorf("kind %q is not in the name table", tp.Kind())
		}
		for _, f := range tp.Content() {
			if f.Name != "payload" && tuple.NameIndex(f.Name) < 0 {
				t.Errorf("%s field %q is not in the name table", tp.Kind(), f.Name)
			}
		}
	}
	if len(builtKinds) != len(registered) {
		t.Errorf("built %d kinds of the %d registered: add a constructor for each", len(builtKinds), len(registered))
	}

	h := &heat{}
	h.SetID(tuple.ID{Node: "n1", Seq: 1})
	data, err := tuple.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"example:heat", "source", "intensity", "_threshold"} {
		if tuple.NameIndex(s) >= 0 || !bytes.Contains(data, append([]byte{byte(len(s) << 1)}, s...)) {
			t.Errorf("%q is not written as a literal", s)
		}
	}
	kind, id, c, err := tuple.DecodeParts(data)
	if err != nil || kind != h.Kind() || id != h.ID() || !c.Equal(h.Content()) {
		t.Errorf("custom kind round trip = %q %v %v, %v", kind, id, c, err)
	}
}
