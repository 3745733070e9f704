package tuple

import (
	"testing"
	"testing/quick"
)

// Property: Filter returns exactly the tuples Matches accepts, in
// order.
func TestFilterConsistentWithMatchesQuick(t *testing.T) {
	f := func(names []string, wantName string) bool {
		var ts []Tuple
		for i, n := range names {
			tt := newTestTuple("q", Content{S("name", n)})
			tt.SetID(ID{Node: "n", Seq: uint64(i + 1)})
			ts = append(ts, tt)
		}
		tpl := Match("q", Eq(S("name", wantName)))
		got := tpl.Filter(ts)
		var want []Tuple
		for _, tt := range ts {
			if tpl.Matches(tt) {
				want = append(want, tt)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a template built from a tuple's own exact fields always
// matches that tuple.
func TestSelfTemplateAlwaysMatchesQuick(t *testing.T) {
	f := func(name, sval string, ival int64, b bool) bool {
		tt := newTestTuple("q", Content{S("name", name), S("s", sval), I("i", ival), B("b", b)})
		tt.SetID(ID{Node: "n", Seq: 1})
		tpl := Match("q",
			Eq(S("name", name)),
			Eq(S("s", sval)),
			Eq(I("i", ival)),
			Eq(B("b", b)),
		)
		return tpl.Matches(tt) && MatchID(tt.ID()).Matches(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: codec round trip preserves template-match results.
func TestMatchSurvivesCodecQuick(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("q2", factoryFor("q2"))
	f := func(name string, v int64, probe string) bool {
		tt := newTestTuple("q2", Content{S("name", name), I("v", v)})
		tt.SetID(ID{Node: "n", Seq: 1})
		data, err := Encode(tt)
		if err != nil {
			return false
		}
		back, err := Decode(r, data)
		if err != nil {
			return false
		}
		tpl := Match("q2", Eq(S("name", probe)))
		return tpl.Matches(tt) == tpl.Matches(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MatchesParts on a tuple's parts is Matches on the tuple,
// across kind prefixes, id patterns, named, positional and exact
// templates.
func TestMatchesPartsIsMatchesQuick(t *testing.T) {
	f := func(kind, name, probe string, v int64, seq uint8, exact bool) bool {
		tt := newTestTuple("q"+kind, Content{S("name", name), {Value: v}})
		tt.SetID(ID{Node: "n", Seq: uint64(seq)})
		for _, tpl := range []Template{
			MatchAll(), Match("q*"), Match("q" + probe), MatchID(ID{Node: "n", Seq: 3}),
			Match("", Eq(S("name", probe))), Match("", Eq(S("name", name)), AnyOfKind("", KindInt)),
			{Kind: "q*", Exact: exact, Fields: []FieldPattern{AnyField("name")}},
		} {
			if tpl.MatchesParts(tt.Kind(), tt.ID(), tt.Content()) != tpl.Matches(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
