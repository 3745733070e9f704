// Package tuple defines the TOTA tuple model.
//
// A TOTA tuple is T = (C, P): a content C — an ordered set of typed
// fields — and a propagation rule P that governs how the tuple diffuses
// hop-by-hop through the network and how its content changes while doing
// so. This package provides the content model (Field, Content), local
// pattern matching (Template), tuple identities (ID), the programming
// model (the Tuple interface and its hooks, mirroring the paper's
// abstract Tuple class), and a binary codec with a kind registry so
// tuples can travel over real transports.
package tuple

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the dynamic types a Field value may hold. TOTA
// contents are ordered sets of *typed* fields; restricting the set of
// types keeps matching and serialization well-defined.
type Kind int

// Field value kinds.
const (
	KindString Kind = iota + 1
	KindInt
	KindFloat
	KindBool
	KindBytes
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrBadValue reports a field value outside the supported kinds.
var ErrBadValue = errors.New("tuple: unsupported field value type")

// Field is one typed, named element of a tuple content. Value must be a
// string, int64, float64, bool or []byte; use the S/I/F/B/Bin
// constructors to stay within that set.
type Field struct {
	Name  string
	Value any
}

// S returns a string field.
func S(name, v string) Field { return Field{Name: name, Value: v} }

// I returns an integer field.
func I(name string, v int64) Field { return Field{Name: name, Value: v} }

// F returns a float field.
func F(name string, v float64) Field { return Field{Name: name, Value: v} }

// B returns a boolean field.
func B(name string, v bool) Field { return Field{Name: name, Value: v} }

// Bin returns a bytes field. The slice is not copied; callers must not
// mutate it after handing it to a tuple.
func Bin(name string, v []byte) Field { return Field{Name: name, Value: v} }

// Kind returns the kind of the field's value, or 0 if the value is of an
// unsupported type.
func (f Field) Kind() Kind {
	switch f.Value.(type) {
	case string:
		return KindString
	case int64:
		return KindInt
	case float64:
		return KindFloat
	case bool:
		return KindBool
	case []byte:
		return KindBytes
	default:
		return 0
	}
}

// Equal reports whether two fields have the same name, kind and value.
// Float fields compare with exact equality except that NaN equals NaN,
// so that contents containing sentinel NaNs still compare stably.
func (f Field) Equal(g Field) bool {
	if f.Name != g.Name || f.Kind() != g.Kind() {
		return false
	}
	switch a := f.Value.(type) {
	case []byte:
		b, ok := g.Value.([]byte)
		return ok && string(a) == string(b)
	case float64:
		b, ok := g.Value.(float64)
		if !ok {
			return false
		}
		if math.IsNaN(a) && math.IsNaN(b) {
			return true
		}
		return a == b
	default:
		return f.Value == g.Value
	}
}

// String implements fmt.Stringer.
func (f Field) String() string {
	var v string
	switch x := f.Value.(type) {
	case string:
		v = strconv.Quote(x)
	case []byte:
		v = fmt.Sprintf("0x%x", x)
	default:
		v = fmt.Sprint(x)
	}
	if f.Name == "" {
		return v
	}
	return f.Name + "=" + v
}

// Content is the ordered set of typed fields carried by a tuple.
type Content []Field

// pairwiseFields is the most fields Validate checks for duplicate names
// by comparing each name with the ones before it. A tuple has a handful
// of fields, where that beats building a set; content from outside the
// program can have thousands, where a set keeps the check linear.
const pairwiseFields = 16

// Validate reports an error if any field holds an unsupported value
// type or a duplicate non-empty name.
func (c Content) Validate() error {
	var seen map[string]struct{}
	if len(c) > pairwiseFields {
		seen = make(map[string]struct{}, len(c))
	}
	for i, f := range c {
		if f.Kind() == 0 {
			return fmt.Errorf("field %d (%q): %w (%T)", i, f.Name, ErrBadValue, f.Value)
		}
		if f.Name == "" {
			continue
		}
		dup := false
		if seen == nil {
			for _, g := range c[:i] {
				if g.Name == f.Name {
					dup = true
					break
				}
			}
		} else {
			_, dup = seen[f.Name]
			seen[f.Name] = struct{}{}
		}
		if dup {
			return fmt.Errorf("field %d: duplicate name %q", i, f.Name)
		}
	}
	return nil
}

// Get returns the first field with the given name.
func (c Content) Get(name string) (Field, bool) {
	for _, f := range c {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// GetString returns the value of the named string field, or "" if the
// field is absent or not a string.
func (c Content) GetString(name string) string {
	if f, ok := c.Get(name); ok {
		if s, ok := f.Value.(string); ok {
			return s
		}
	}
	return ""
}

// GetInt returns the value of the named int field, or 0 if the field is
// absent or not an int.
func (c Content) GetInt(name string) int64 {
	if f, ok := c.Get(name); ok {
		if v, ok := f.Value.(int64); ok {
			return v
		}
	}
	return 0
}

// GetFloat returns the value of the named float field, or 0 if the field
// is absent or not a float.
func (c Content) GetFloat(name string) float64 {
	if f, ok := c.Get(name); ok {
		if v, ok := f.Value.(float64); ok {
			return v
		}
	}
	return 0
}

// GetBool returns the value of the named bool field, or false if the
// field is absent or not a bool.
func (c Content) GetBool(name string) bool {
	if f, ok := c.Get(name); ok {
		if v, ok := f.Value.(bool); ok {
			return v
		}
	}
	return false
}

// With returns a copy of c with the named field replaced (or appended if
// absent). The receiver is unchanged; propagation hooks use With to
// evolve contents per hop without aliasing the stored copy.
func (c Content) With(f Field) Content {
	out := c.Clone()
	for i := range out {
		if out[i].Name == f.Name {
			out[i] = f
			return out
		}
	}
	return append(out, f)
}

// Clone returns a deep copy of c ([]byte field values included).
func (c Content) Clone() Content {
	if c == nil {
		return nil
	}
	out := make(Content, len(c))
	copy(out, c)
	for i, f := range out {
		if b, ok := f.Value.([]byte); ok {
			nb := make([]byte, len(b))
			copy(nb, b)
			out[i].Value = nb
		}
	}
	return out
}

// Equal reports whether two contents have the same fields in the same
// order.
func (c Content) Equal(d Content) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if !c[i].Equal(d[i]) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c Content) String() string {
	parts := make([]string, len(c))
	for i, f := range c {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
