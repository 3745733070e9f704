package tuple

import "strings"

// FieldPattern matches one field of a tuple content. A pattern with
// Any set matches any value (optionally constrained to a Kind); a
// pattern without Any matches a field equal to Value. A non-empty Name
// matches the field with that name wherever it appears; an empty Name
// matches positionally.
type FieldPattern struct {
	Name  string
	Any   bool
	Kind  Kind // optional type constraint when Any is set (0 = any kind)
	Value any  // exact value when Any is unset
}

// AnyField matches any value for the named field.
func AnyField(name string) FieldPattern { return FieldPattern{Name: name, Any: true} }

// AnyOfKind matches any value of kind k for the named field.
func AnyOfKind(name string, k Kind) FieldPattern {
	return FieldPattern{Name: name, Any: true, Kind: k}
}

// Eq matches a field equal to f.
func Eq(f Field) FieldPattern { return FieldPattern{Name: f.Name, Value: f.Value} }

func (p FieldPattern) matchField(f Field) bool {
	if p.Any {
		return p.Kind == 0 || f.Kind() == p.Kind
	}
	return Field{Name: f.Name, Value: p.Value}.Equal(f)
}

func (p FieldPattern) matches(c Content, pos int) bool {
	if p.Name != "" {
		f, ok := c.Get(p.Name)
		return ok && p.matchField(f)
	}
	if pos >= len(c) {
		return false
	}
	return p.matchField(c[pos])
}

// Template is the pattern-matching query used by the TOTA read, delete
// and subscribe primitives. A template matches a tuple when the Kind
// prefix (if any) matches the tuple's kind and every FieldPattern
// matches the tuple's content. With Exact set, the content must not
// carry extra positional fields beyond the template's.
type Template struct {
	Kind   string // "" matches every kind; a trailing "*" matches a prefix
	Exact  bool
	Fields []FieldPattern
}

// Match builds a template that matches tuples of the given kind ("" for
// any) whose content satisfies all patterns.
func Match(kind string, fields ...FieldPattern) Template {
	return Template{Kind: kind, Fields: fields}
}

// MatchAll matches every tuple.
func MatchAll() Template { return Template{} }

// MatchID matches the tuple with exactly the given id (used by the
// middleware's own maintenance machinery and available to tests).
func MatchID(id ID) Template {
	return Template{Fields: []FieldPattern{{Name: "\x00id", Value: id.String()}}}
}

// Matches reports whether the template matches tuple t.
func (tpl Template) Matches(t Tuple) bool {
	return t != nil && tpl.kindMatches(t.Kind()) && tpl.MatchesParts(t.Kind(), t.ID(), t.Content())
}

// MatchesParts is Matches on a tuple's kind, id and content, for a caller
// that holds one tuple against many templates and fetches the parts once.
func (tpl Template) MatchesParts(kind string, id ID, c Content) bool {
	if !tpl.kindMatches(kind) {
		return false
	}
	pos := 0
	for _, p := range tpl.Fields {
		if p.Name == "\x00id" {
			if s, ok := p.Value.(string); !ok || s != id.String() {
				return false
			}
			continue
		}
		if !p.matches(c, pos) {
			return false
		}
		if p.Name == "" {
			pos++
		}
	}
	if tpl.Exact && pos != len(c) {
		// All positional fields must have been consumed.
		named := 0
		for _, p := range tpl.Fields {
			if p.Name != "" && p.Name != "\x00id" {
				named++
			}
		}
		if pos+named != len(c) {
			return false
		}
	}
	return true
}

func (tpl Template) kindMatches(kind string) bool {
	if tpl.Kind == "" {
		return true
	}
	if strings.HasSuffix(tpl.Kind, "*") {
		return strings.HasPrefix(kind, strings.TrimSuffix(tpl.Kind, "*"))
	}
	return tpl.Kind == kind
}

// Filter returns the subset of ts matched by the template, preserving
// order.
func (tpl Template) Filter(ts []Tuple) []Tuple {
	var out []Tuple
	for _, t := range ts {
		if tpl.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}
