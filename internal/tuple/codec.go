package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
)

// Factory reconstructs a tuple of a given kind from its identity and
// content. Every kind used on the wire must register one.
type Factory func(id ID, c Content) (Tuple, error)

// Registry maps tuple kinds to factories, enabling the generic binary
// codec: a tuple round-trips as (kind, id, content). It also interns
// the low-cardinality strings of the wire format that the name table
// does not hold (node ids, custom kinds and field names) so
// steady-state decoding stops allocating them.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory

	strMu sync.RWMutex
	strs  map[string]string
}

// internCap bounds the intern table; when full it is reset rather than
// evicted, so a burst of unique strings cannot grow it without bound.
const internCap = 4096

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		factories: make(map[string]Factory),
		strs:      make(map[string]string),
	}
}

// Intern returns b as a string, reusing a previously returned string
// with the same contents when possible. Decoders call it for repeated
// protocol strings: node ids, and the kinds and field names that arrive
// as literals rather than name table references. After the first
// packet of a given shape, those lookups allocate nothing.
func (r *Registry) Intern(b []byte) string {
	if r == nil || len(b) == 0 {
		return string(b)
	}
	r.strMu.RLock()
	s, ok := r.strs[string(b)] // compiler avoids the []byte->string alloc
	r.strMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	r.strMu.Lock()
	if len(r.strs) >= internCap {
		r.strs = make(map[string]string, internCap/4)
	}
	r.strs[s] = s
	r.strMu.Unlock()
	return s
}

// Register adds a factory for kind. Registering the same kind twice is
// an error so accidental collisions between tuple libraries surface
// early.
func (r *Registry) Register(kind string, f Factory) error {
	if kind == "" {
		return errors.New("tuple: empty kind")
	}
	if f == nil {
		return fmt.Errorf("tuple: nil factory for kind %q", kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[kind]; dup {
		return fmt.Errorf("tuple: kind %q already registered", kind)
	}
	r.factories[kind] = f
	return nil
}

// MustRegister is Register for program initialization; it panics on
// error.
func (r *Registry) MustRegister(kind string, f Factory) {
	if err := r.Register(kind, f); err != nil {
		panic(err)
	}
}

// New builds a tuple of the given kind from id and content.
func (r *Registry) New(kind string, id ID, c Content) (Tuple, error) {
	r.mu.RLock()
	f, ok := r.factories[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tuple: unknown kind %q", kind)
	}
	t, err := f(id, c)
	if err != nil {
		return nil, fmt.Errorf("tuple: decode kind %q: %w", kind, err)
	}
	return t, nil
}

// Clone deep-copies a tuple by rebuilding it from its kind, id and a
// cloned content.
func (r *Registry) Clone(t Tuple) (Tuple, error) {
	return r.New(t.Kind(), t.ID(), t.Content().Clone())
}

// Kinds returns the registered kind names (in map order).
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for k := range r.factories {
		out = append(out, k)
	}
	return out
}

// DefaultRegistry is the process-wide registry; tuple libraries register
// their kinds into it at initialization (the pluggable-codec-registry
// pattern).
var DefaultRegistry = NewRegistry()

// codecVersion 3 is the compact format: every length, the field count
// and the id's seq are unsigned varints, an int is a zigzag varint, a
// float takes the compact float form (AppendFloat), and the kind and
// the field names are names (see names). Version 1 (fixed width) and 2
// (literal names) bytes decode as ErrBadVersion.
const codecVersion = 3

// names is the static name table, like HPACK's (RFC 7541): every kind
// a package under internal/ registers for the wire, "name", and every
// reserved "_" field a built-in pattern writes. The kind and each field
// name travel as one uvarint v: v = len<<1 and the bytes for a literal,
// or v = idx<<1 | 1 for entry idx. The table is a protocol constant:
// append-only, at most 64 entries so that every reference is one byte,
// and any edit bumps codecVersion.
var names = [...]string{
	"tota:gradient", "tota:flood", "tota:spatial", "tota:directional",
	"tota:downhill", "tota:flock", "tota:eraser", "tota:local",
	"tota:gossip", "tota:path", "tota:agg-query", "tota:keyed",
	"name", ValueField, "_step", "_scope", "_lease", "_ttl", "_x",
	"_radius", "_sx", "_sy", "_hassrc", "_dx", "_dy", "_spread",
	"_skind", "_best", "_flood", "_tkind", "_tname", "_p", "_path",
	"_op", "_selkind", "_selname", "_selfield", "_collect",
	"_mode", "_target", "_asker",
}

// nameIndex returns s's index in names, or -1. The encoder looks each
// name up twice (EncodedSize and appendTuple), and a compiled switch
// costs less than a map or a scan of names. TestNameTable checks it
// against names.
func nameIndex(s string) int {
	switch s {
	case "tota:gradient":
		return 0
	case "tota:flood":
		return 1
	case "tota:spatial":
		return 2
	case "tota:directional":
		return 3
	case "tota:downhill":
		return 4
	case "tota:flock":
		return 5
	case "tota:eraser":
		return 6
	case "tota:local":
		return 7
	case "tota:gossip":
		return 8
	case "tota:path":
		return 9
	case "tota:agg-query":
		return 10
	case "tota:keyed":
		return 11
	case "name":
		return 12
	case "_val":
		return 13
	case "_step":
		return 14
	case "_scope":
		return 15
	case "_lease":
		return 16
	case "_ttl":
		return 17
	case "_x":
		return 18
	case "_radius":
		return 19
	case "_sx":
		return 20
	case "_sy":
		return 21
	case "_hassrc":
		return 22
	case "_dx":
		return 23
	case "_dy":
		return 24
	case "_spread":
		return 25
	case "_skind":
		return 26
	case "_best":
		return 27
	case "_flood":
		return 28
	case "_tkind":
		return 29
	case "_tname":
		return 30
	case "_p":
		return 31
	case "_path":
		return 32
	case "_op":
		return 33
	case "_selkind":
		return 34
	case "_selname":
		return 35
	case "_selfield":
		return 36
	case "_collect":
		return 37
	case "_mode":
		return 38
	case "_target":
		return 39
	case "_asker":
		return 40
	}
	return -1
}

// Codec errors.
var (
	ErrShortBuffer = errors.New("tuple: short buffer")
	ErrBadVersion  = errors.New("tuple: unsupported codec version")
	// ErrTooLarge reports a varint past 64 bits, or a number past the
	// range of what it encodes.
	ErrTooLarge = errors.New("tuple: value exceeds decode bounds")
)

// The compact float form is one tag byte and its payload. In the tuple
// codec the tag is the field's kind byte, so the tags other than
// floatBits sit past the last Kind.
const (
	floatBits   = byte(KindFloat) // the IEEE-754 bits, 8 bytes big-endian
	floatInt    = 6               // an integral value as a zigzag varint
	floatPosInf = 7               // +Inf, no payload
	floatNegInf = 8               // -Inf, no payload
)

// maxExactInt is 2^53: every integer of at most this magnitude is a
// float64 exactly, so the integral form round-trips it.
const maxExactInt = 1 << 53

// UvarintSize returns the encoded size of x as an unsigned varint.
func UvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps a signed integer onto the unsigned varint space as
// binary.AppendVarint does, small magnitudes to small numbers.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// integral returns v as an integer when it takes the integral float
// form: an integer of magnitude at most 2^53, other than -0 (its sign
// would be lost). A v the conversion cannot represent (±Inf, NaN, past
// int64) never converts back to itself.
func integral(v float64) (int64, bool) {
	i := int64(v)
	return i, float64(i) == v && i <= maxExactInt && i >= -maxExactInt && (i != 0 || !math.Signbit(v))
}

// FloatSize returns the size of v in the compact float form, tag
// included.
func FloatSize(v float64) int {
	if i, ok := integral(v); ok {
		return 1 + UvarintSize(zigzag(i))
	}
	if math.IsInf(v, 0) {
		return 1
	}
	return 1 + 8
}

// AppendFloat appends v in the compact float form: ±Inf as a bare tag,
// an integral value within ±2^53 (not -0) as a tag and a zigzag
// varint — 23 takes two bytes — and any other float, NaN payloads and
// subnormals included, as a tag and its 8 IEEE-754 bytes. Every float
// decodes back to identical bits.
func AppendFloat(b []byte, v float64) []byte {
	if i, ok := integral(v); ok {
		return binary.AppendVarint(append(b, floatInt), i)
	}
	switch {
	case math.IsInf(v, 1):
		return append(b, floatPosInf)
	case math.IsInf(v, -1):
		return append(b, floatNegInf)
	}
	return binary.BigEndian.AppendUint64(append(b, floatBits), math.Float64bits(v))
}

// ReadFloat decodes one compact float from the front of b and returns
// it with the number of bytes it took, tag included.
func ReadFloat(b []byte) (float64, int, error) {
	if len(b) == 0 {
		return 0, 0, ErrShortBuffer
	}
	switch b[0] {
	case floatPosInf:
		return math.Inf(1), 1, nil
	case floatNegInf:
		return math.Inf(-1), 1, nil
	case floatBits:
		if len(b) < 1+8 {
			return 0, 0, ErrShortBuffer
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b[1:])), 1 + 8, nil
	case floatInt:
		i, n := binary.Varint(b[1:])
		if n <= 0 {
			return 0, 0, varintErr(n)
		}
		if i > maxExactInt || i < -maxExactInt {
			return 0, 0, ErrTooLarge
		}
		return float64(i), 1 + n, nil
	}
	return 0, 0, fmt.Errorf("tuple: bad value tag %d", b[0])
}

// varintErr is the error for binary.Uvarint's or Varint's n <= 0: a
// truncated varint is short, one past 64 bits too large.
func varintErr(n int) error {
	if n == 0 {
		return ErrShortBuffer
	}
	return ErrTooLarge
}

// EncodedSize returns the exact number of bytes Encode produces for t,
// whose content is c, varint widths included, so callers can allocate
// (or reserve) encode buffers in one shot.
func EncodedSize(t Tuple, c Content) int {
	id := t.ID()
	kind := t.Kind()
	n := 1 + nameSize(nameIndex(kind), kind) + stringSize(string(id.Node)) + UvarintSize(id.Seq) + UvarintSize(uint64(len(c)))
	for _, f := range c {
		n += nameSize(nameIndex(f.Name), f.Name)
		switch v := f.Value.(type) {
		case string:
			n += 1 + stringSize(v)
		case int64:
			n += 1 + UvarintSize(zigzag(v))
		case float64:
			n += FloatSize(v)
		case bool:
			n += 2
		case []byte:
			n += 1 + UvarintSize(uint64(len(v))) + len(v)
		}
	}
	return n
}

func stringSize(s string) int { return UvarintSize(uint64(len(s))) + len(s) }

// nameSize is the encoded size of name s, whose index in names is i
// (-1: none). Callers pass nameIndex(s), so nameSize and appendName
// inline and each name costs one call.
func nameSize(i int, s string) int {
	if i >= 0 {
		return 1
	}
	return UvarintSize(uint64(len(s))<<1) + len(s)
}

// Encode serializes a tuple as (kind, id, content) in the compact
// binary format. The output is sized exactly, so encoding costs a
// single allocation.
func Encode(t Tuple) ([]byte, error) {
	c := t.Content()
	return AppendEncode(make([]byte, 0, EncodedSize(t, c)), t, c)
}

// AppendEncode appends the serialized form of t, whose content is c, to
// dst and returns the extended slice. It lets message framers build a
// whole packet in one buffer: a dst with EncodedSize(t, c) bytes of
// spare capacity is written in place, with no further allocation. c is
// t.Content() fetched once by the caller, so sizing the packet and
// writing it read the same slice.
func AppendEncode(dst []byte, t Tuple, c Content) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return appendTuple(dst, t, c), nil
}

// appendTuple is AppendEncode without the content validation.
func appendTuple(b []byte, t Tuple, c Content) []byte {
	b = append(b, codecVersion)
	kind := t.Kind()
	b = appendName(b, nameIndex(kind), kind)
	b = appendString(b, string(t.ID().Node))
	b = binary.AppendUvarint(b, t.ID().Seq)
	b = binary.AppendUvarint(b, uint64(len(c)))
	for _, f := range c {
		b = appendName(b, nameIndex(f.Name), f.Name)
		switch v := f.Value.(type) {
		case string:
			b = appendString(append(b, byte(KindString)), v)
		case int64:
			b = binary.AppendVarint(append(b, byte(KindInt)), v)
		case float64:
			b = AppendFloat(b, v)
		case bool:
			if v {
				b = append(b, byte(KindBool), 1)
			} else {
				b = append(b, byte(KindBool), 0)
			}
		case []byte:
			b = appendBytes(append(b, byte(KindBytes)), v)
		}
	}
	return b
}

// Decode reconstructs a tuple previously serialized with Encode, using
// the registry's factory for its kind.
func Decode(r *Registry, data []byte) (Tuple, error) {
	kind, id, c, err := decodeParts(r, data)
	if err != nil {
		return nil, err
	}
	return r.New(kind, id, c)
}

// DecodeParts parses the serialized form without invoking a factory,
// for transports and tools that need only the envelope information.
func DecodeParts(data []byte) (kind string, id ID, c Content, err error) {
	return decodeParts(nil, data)
}

// decodeParts is DecodeParts with an optional registry whose intern
// table absorbs the repeated protocol strings (node id, literal kind
// and field names); field values are never interned — their
// cardinality is unbounded.
func decodeParts(r *Registry, data []byte) (kind string, id ID, c Content, err error) {
	d := decoder{buf: data, reg: r}
	kind, id = d.open()
	if d.err != nil {
		return "", ID{}, nil, d.err
	}
	c = make(Content, 0, d.left)
	for d.left > 0 {
		ref, lit, k := d.field()
		if d.err != nil {
			return "", ID{}, nil, d.err
		}
		var val any
		switch k {
		case KindString:
			val = string(d.val)
		case KindInt:
			val = d.num
		case KindFloat:
			val = d.f
		case KindBool:
			val = d.num != 0
		case KindBytes:
			val = append(make([]byte, 0, len(d.val)), d.val...)
		}
		c = append(c, Field{Name: d.str(ref, lit), Value: val})
	}
	return kind, id, c, nil
}

// Envelope is what an encoded tuple says about itself before it is
// built.
type Envelope struct {
	Kind string
	ID   ID
	// Value is the ValueField, valid when HasValue: the content holds
	// one field by that name, a float, among the trailing "_" fields —
	// where every Maintained kind keeps it.
	Value    float64
	HasValue bool
}

// ReadEnvelope walks an encoded tuple without building it. It rejects
// exactly what DecodeParts rejects, interns the node and a literal kind
// through r, and allocates nothing once those are interned.
func ReadEnvelope(r *Registry, data []byte) (Envelope, error) {
	d := decoder{buf: data, reg: r}
	kind, id := d.open()
	if d.err != nil {
		return Envelope{}, d.err
	}
	e := Envelope{Kind: kind, ID: id}
	vals, appAfter := 0, false
	for d.left > 0 {
		ref, lit, k := d.field()
		if d.err != nil {
			return Envelope{}, d.err
		}
		if ref == ValueField || string(lit) == ValueField {
			vals, appAfter, e.HasValue = vals+1, false, k == KindFloat
			e.Value = d.f
		} else if !strings.HasPrefix(ref, "_") && (len(lit) == 0 || lit[0] != '_') {
			appAfter = true
		}
	}
	e.HasValue = e.HasValue && vals == 1 && !appAfter
	if !e.HasValue {
		e.Value = 0
	}
	return e, nil
}

// minField is the fewest bytes a field takes: a one-byte name (a
// reference or the empty literal) and a bare tag (±Inf).
const minField = 2

// open reads the header — codec version, kind, id, field count — and
// leaves d at the first field. With field, it is the binary format's
// only parser: decodeParts builds content from it, ReadEnvelope only
// looks.
func (d *decoder) open() (kind string, id ID) {
	if v := d.byte(); d.err == nil && v != codecVersion {
		d.fail(fmt.Errorf("%w: %d", ErrBadVersion, v))
		return "", ID{}
	}
	kind = d.str(d.name())
	id.Node = NodeID(d.intern(d.bytes()))
	id.Seq = d.uvarint()
	// A count the remaining bytes cannot hold is rejected before
	// decodeParts sizes its content from it.
	if n := d.uvarint(); n <= uint64(len(d.buf)/minField) {
		d.left = int(n)
	} else {
		d.fail(ErrShortBuffer)
	}
	return kind, id
}

// field reads the next field's name (as name does) and kind, and
// leaves its value in d: val for a string or bytes (aliasing the decoded
// data), num for an int or a bool (0 or 1), f for a float. Any compact
// float tag reads as KindFloat. A failure is left in d.err.
func (d *decoder) field() (ref string, lit []byte, k Kind) {
	d.left--
	ref, lit = d.name()
	if len(d.buf) == 0 {
		d.fail(ErrShortBuffer)
		return "", nil, 0
	}
	switch k = Kind(d.buf[0]); k {
	case KindString, KindBytes:
		d.buf = d.buf[1:]
		d.val = d.bytes()
	case KindInt:
		d.buf = d.buf[1:]
		d.num = d.varint()
	case KindBool:
		d.buf = d.buf[1:]
		d.num = int64(d.byte())
	default:
		k = KindFloat
		d.float()
	}
	return ref, lit, k
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendName appends a kind or field name s, whose index in names is i
// (see nameSize): a reference i<<1 | 1, or for i < 0 the literal
// len<<1 and its bytes.
func appendName(b []byte, i int, s string) []byte {
	if i >= 0 {
		return append(b, byte(i<<1|1))
	}
	b = binary.AppendUvarint(b, uint64(len(s))<<1)
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// decoder walks an encoded tuple. Its first failure sticks in err and
// empties buf, so every later read fails too; each read takes a
// one-byte varint without a call.
type decoder struct {
	buf  []byte
	err  error
	reg  *Registry // optional; enables string interning
	left int       // fields not read yet

	// The value of the field last read (see field).
	val []byte
	num int64
	f   float64
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

func (d *decoder) byte() byte {
	if b := d.buf; len(b) > 0 {
		d.buf = b[1:]
		return b[0]
	}
	d.fail(ErrShortBuffer)
	return 0
}

func (d *decoder) uvarint() uint64 {
	if b := d.buf; len(b) > 0 && b[0] < 0x80 {
		d.buf = b[1:]
		return uint64(b[0])
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(varintErr(n))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(varintErr(n))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// bytes reads a length-prefixed string or byte payload, aliasing the
// decoded data.
func (d *decoder) bytes() []byte {
	if b := d.buf; len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) {
		n := 1 + int(b[0])
		d.buf = b[n:]
		return b[1:n]
	}
	return d.take(d.uvarint())
}

// name reads a kind or field name: a reference as the table's entry,
// or a literal as its bytes, aliasing the decoded data. An index past
// the table is ErrTooLarge.
func (d *decoder) name() (ref string, lit []byte) {
	v := d.uvarint()
	if v&1 == 0 {
		return "", d.take(v >> 1)
	}
	if v >>= 1; v < uint64(len(names)) {
		return names[v], nil
	}
	d.fail(ErrTooLarge)
	return "", nil
}

// take reads the next n bytes, aliasing the decoded data. n is checked
// against the remaining bytes in 64-bit space, so no length can wrap
// the bounds arithmetic.
func (d *decoder) take(n uint64) []byte {
	if n > uint64(len(d.buf)) {
		d.fail(ErrShortBuffer)
	}
	if d.err != nil {
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// float reads a compact float, its tag the field's kind byte.
func (d *decoder) float() {
	if b := d.buf; len(b) > 1 && b[0] == floatInt && b[1] < 0x80 { // |v| < 64
		d.f, d.buf = float64(int64(b[1]>>1)^-int64(b[1]&1)), b[2:]
		return
	}
	v, n, err := ReadFloat(d.buf)
	if err != nil {
		d.fail(err)
		return
	}
	d.f, d.buf = v, d.buf[n:]
}

// str returns a name that name read: the table's entry, or the literal
// interned.
func (d *decoder) str(ref string, lit []byte) string {
	if ref != "" {
		return ref
	}
	return d.intern(lit)
}

func (d *decoder) intern(b []byte) string {
	if d.reg != nil {
		return d.reg.Intern(b)
	}
	return string(b)
}
