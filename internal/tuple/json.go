package tuple

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// The JSON form of a tuple is
//
//	{"kind":K,"id":"node#seq","content":[{"name":N,"type":T,"value":V},…]}
//
// where the type tag keeps int64/float64 distinct and carries []byte as
// base64, and an empty name is omitted. One appender writes it and one
// scanner reads it, a single pass each, with the bytes and the verdicts
// of the reflective encoding/json codec the tests keep (DESIGN.md §15).

// AppendJSONString appends s as a JSON string literal, escaped exactly
// as encoding/json escapes it (HTML characters, U+2028/9, invalid UTF-8).
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			lit, _ := json.Marshal(s) // cannot fail on a string
			return append(dst, lit...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

func appendFieldJSON(dst []byte, f Field) ([]byte, error) {
	dst = append(dst, '{')
	if f.Name != "" {
		dst = append(AppendJSONString(append(dst, `"name":`...), f.Name), ',')
	}
	switch v := f.Value.(type) {
	case string:
		dst = AppendJSONString(append(dst, `"type":"string","value":`...), v)
	case int64:
		dst = strconv.AppendInt(append(dst, `"type":"int","value":`...), v, 10)
	case bool:
		dst = strconv.AppendBool(append(dst, `"type":"bool","value":`...), v)
	case []byte:
		dst = append(base64.StdEncoding.AppendEncode(append(dst, `"type":"bytes","value":"`...), v), '"')
	case float64:
		dst = append(dst, `"type":"float","value":`...)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no literal for non-finite numbers, which would make
			// every tuple with an unbounded scope (+Inf) unrepresentable;
			// carry them as the strings strconv.ParseFloat accepts back.
			dst = append(strconv.AppendFloat(append(dst, '"'), v, 'g', -1, 64), '"')
		} else {
			lit, _ := json.Marshal(v) // cannot fail on a finite float
			dst = append(dst, lit...)
		}
	default:
		return dst, fmt.Errorf("%w (%T)", ErrBadValue, f.Value)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler.
func (f Field) MarshalJSON() ([]byte, error) { return appendFieldJSON(nil, f) }

// AppendTupleJSON appends t's JSON form to dst (garbage, on an error).
func AppendTupleJSON(dst []byte, t Tuple) ([]byte, error) {
	c := t.Content()
	if err := c.Validate(); err != nil {
		return dst, err
	}
	dst = AppendJSONString(append(dst, `{"kind":`...), t.Kind())
	dst = AppendJSONString(append(dst, `,"id":`...), t.ID().String())
	dst, _ = AppendContentJSON(append(dst, `,"content":`...), c) // cannot fail: Validate saw the value types
	return append(dst, '}'), nil
}

// AppendContentJSON appends c as json.Marshal writes a Content: an array
// of field objects, null when c is nil (garbage, on an error).
func AppendContentJSON(dst []byte, c Content) ([]byte, error) {
	if c == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range c {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFieldJSON(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// MarshalTupleJSON renders a tuple as JSON, the counterpart of the
// binary Encode for tools, logs and the client gateway.
func MarshalTupleJSON(t Tuple) ([]byte, error) { return AppendTupleJSON(nil, t) }

// jsonDec scans one JSON document front to back; p is the read offset.
// The first error sticks and moves p to the end, where every read fails.
type jsonDec struct {
	b   []byte
	p   int
	err error
}

// jsonVal is one scanned value. kind is its first byte, '0' for a number,
// 0 for no value. text is a string unquoted, a number's literal, or the
// extent of a {…} or […], only known to be balanced; commas, see extent.
type jsonVal struct {
	kind   byte
	text   []byte
	commas int
}

func (d *jsonDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("tuple: json offset %d: %s", d.p, what)
	}
	d.p = len(d.b)
}

// ws skips whitespace and returns the byte at the cursor, 0 at the end.
func (d *jsonDec) ws() byte {
	for ; d.p < len(d.b); d.p++ {
		if c := d.b[d.p]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// at reports whether c comes next, and steps over it if so.
func (d *jsonDec) at(c byte) bool {
	if d.ws() != c {
		return false
	}
	d.p++
	return true
}

func (d *jsonDec) expect(c byte) {
	if !d.at(c) {
		d.fail("expected " + string(c))
	}
}

// finish fails on anything but whitespace after the document.
func (d *jsonDec) finish() error {
	if d.ws(); d.p < len(d.b) { // not ws() != 0: the byte may be a NUL
		d.fail("data after value")
	}
	return d.err
}

// extent finds where the string, object or array at the cursor ends and
// counts the commas directly inside it, tracking only nesting and quotes.
func (d *jsonDec) extent() (end, commas int) {
	depth := 0
	for i := d.p; i < len(d.b); i++ {
		switch d.b[i] {
		case '"':
			for i++; i < len(d.b) && d.b[i] != '"'; i++ {
				if d.b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			if depth == 1 {
				commas++
			}
		}
		if depth <= 0 {
			return min(i+1, len(d.b)), commas
		}
	}
	return len(d.b), commas
}

// str reads the string literal at the cursor, unquoted: a view of the
// input if it is plain ASCII, else encoding/json's exact unescaping.
func (d *jsonDec) str() []byte {
	if d.ws() != '"' {
		d.fail("expected string")
	}
	for i := d.p + 1; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.b[d.p+1 : i]
			d.p = i + 1
			return s
		case c == '\\' || c < 0x20 || c >= 0x80:
			end, _ := d.extent()
			var s string
			if err := json.Unmarshal(d.b[d.p:end], &s); err != nil {
				d.fail(err.Error())
			}
			d.p = max(d.p, end)
			return []byte(s)
		}
	}
	d.fail("unterminated string")
	return nil
}

// value scans the value at the cursor, not descending into {…} or […].
func (d *jsonDec) value() (v jsonVal) {
	v.kind = d.ws()
	start := d.p
	switch v.kind {
	case '"':
		v.text = d.str()
		return v
	case '{', '[':
		d.p, v.commas = d.extent()
	case 't', 'f', 'n':
		for d.p < len(d.b) && 'a' <= d.b[d.p] && d.b[d.p] <= 'z' {
			d.p++
		}
		if w := string(d.b[start:d.p]); w != "true" && w != "false" && w != "null" {
			d.fail("bad literal")
		}
		return v
	default:
		// JSON's grammar, narrower than strconv's: integers are checked
		// here, a fraction or exponent is rare enough for json.Valid.
		v.kind = '0'
		d.at('-')
		first := d.p
		for d.p < len(d.b) && '0' <= d.b[d.p] && d.b[d.p] <= '9' {
			d.p++
		}
		ok := d.p > first && (d.b[first] != '0' || d.p == first+1)
		if d.p < len(d.b) && (d.b[d.p] == '.' || d.b[d.p]|0x20 == 'e') {
			for d.p < len(d.b) && bytes.IndexByte([]byte("+-.0123456789eE"), d.b[d.p]) >= 0 {
				d.p++
			}
			ok = json.Valid(d.b[start:d.p])
		}
		if !ok {
			d.fail("bad number")
		}
	}
	v.text = d.b[start:d.p]
	return v
}

// members reads the object at the cursor, which both of the format's
// objects fit: two string members (s) and one of any type (v), matched to
// names as encoding/json matches struct fields: case-folded, in any order,
// the last of a repeated name winning, null leaving a string as it was.
func (d *jsonDec) members(names [3]string, isContent bool) (s [2][]byte, v jsonVal) {
	d.expect('{')
	for more := d.ws() != '}'; more; more = d.at(',') {
		key := d.str()
		d.expect(':')
		val := d.value()
		i := 0
		for i < 3 && !bytes.EqualFold(key, []byte(names[i])) {
			i++
		}
		switch {
		case i == 2:
			if val, v = v, val; isContent {
				d.content(val) // what is replaced must have been decodable
			}
		case i < 2 && val.kind == '"':
			s[i] = val.text
		case i < 2 && val.kind != 'n':
			d.fail("expected string")
		}
		// A bracketed value nobody reads still has to be valid JSON.
		if (val.kind == '{' || val.kind == '[') && !json.Valid(val.text) {
			d.fail("invalid value")
		}
	}
	d.expect('}')
	return s, v
}

// field decodes one {"name","type","value"} object.
func (d *jsonDec) field() Field {
	s, val := d.members([3]string{"name", "type", "value"}, false)
	f := Field{Name: string(s[0])}
	isStr, isNum, ok := val.kind == '"', val.kind == '0', false
	var err error
	switch string(s[1]) {
	case "string":
		ok, f.Value = isStr, string(val.text)
	case "int":
		var v int64
		if isNum {
			v, err = strconv.ParseInt(string(val.text), 10, 64)
		}
		ok, f.Value = isNum && err == nil, v
	case "float":
		var v float64
		if isNum || isStr { // non-finite floats travel as strings ("+Inf", "NaN")
			v, err = strconv.ParseFloat(string(val.text), 64)
		}
		ok, f.Value = (isNum || isStr) && err == nil, v
	case "bool":
		ok, f.Value = val.kind == 't' || val.kind == 'f', val.kind == 't'
	case "bytes":
		if isStr || val.kind == 'n' {
			v := make([]byte, base64.StdEncoding.DecodedLen(len(val.text)))
			n, err := base64.StdEncoding.Decode(v, val.text)
			ok, f.Value = err == nil, v[:n]
		}
	default:
		d.fail(fmt.Sprintf("unknown field type %q", s[1]))
	}
	if !ok && val.kind != 'n' { // null is the zero value f.Value already holds
		d.fail(fmt.Sprintf("bad value for %s field %q", s[1], s[0]))
	}
	return f
}

// content decodes a scanned array of fields into an exactly sized
// Content; null and no value at all decode as nil.
func (d *jsonDec) content(v jsonVal) Content {
	if v.kind == 'n' || v.kind == 0 {
		return nil
	}
	in := jsonDec{b: v.text, p: 1}
	if v.kind != '[' {
		in.fail("expected array")
	}
	c := Content{}
	if in.ws() != ']' {
		c = make(Content, 0, v.commas+1)
		for more := true; more; more = in.at(',') {
			c = append(c, in.field())
		}
	}
	in.expect(']')
	if in.p != len(in.b) {
		in.fail("unbalanced array")
	}
	if in.err != nil && d.err == nil {
		d.err = in.err
	}
	return c
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Field) UnmarshalJSON(data []byte) error {
	d := jsonDec{b: data}
	*f = d.field()
	return d.finish()
}

// UnmarshalJSON implements json.Unmarshaler: a Content inside another
// document (the gateway's inject request) takes the scanner too.
func (c *Content) UnmarshalJSON(data []byte) error {
	d := jsonDec{b: data}
	*c = d.content(d.value())
	return d.finish()
}

// ScanContentJSON decodes the content array that starts data, as
// json.Unmarshal into a Content does, and returns how many bytes it took.
func ScanContentJSON(data []byte) (Content, int, error) {
	d := jsonDec{b: data}
	c := d.content(d.value())
	return c, d.p, d.err
}

// ScanTupleJSON rebuilds the tuple whose JSON form starts data, using the
// registry's factory for its kind, and returns how many bytes it took.
func ScanTupleJSON(r *Registry, data []byte) (Tuple, int, error) {
	d := jsonDec{b: data}
	s, cv := d.members([3]string{"kind", "id", "content"}, true)
	c := d.content(cv)
	if d.err != nil {
		return nil, 0, d.err
	}
	id, err := ParseID(string(s[1]))
	if err != nil {
		return nil, 0, err
	}
	t, err := r.New(string(s[0]), id, c)
	return t, d.p, err
}

// UnmarshalTupleJSON rebuilds a tuple from its JSON form using the
// registry's factory for its kind.
func UnmarshalTupleJSON(r *Registry, data []byte) (Tuple, error) {
	t, n, err := ScanTupleJSON(r, data)
	if err = (&jsonDec{b: data, p: n, err: err}).finish(); err != nil {
		return nil, err
	}
	return t, nil
}
