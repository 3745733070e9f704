package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Factory reconstructs a tuple of a given kind from its identity and
// content. Every kind used on the wire must register one.
type Factory func(id ID, c Content) (Tuple, error)

// Registry maps tuple kinds to factories, enabling the generic binary
// codec: a tuple round-trips as (kind, id, content). It also interns
// the low-cardinality strings of the wire format (kinds, node ids,
// field names) so steady-state decoding stops allocating them.
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
// protocol strings (kinds, node ids, field names): after the first
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

const codecVersion = 1

// Codec errors.
var (
	ErrShortBuffer = errors.New("tuple: short buffer")
	ErrBadVersion  = errors.New("tuple: unsupported codec version")
)

// EncodedSize returns the exact number of bytes Encode produces for t,
// whose content is c, so callers can allocate (or reserve) encode
// buffers in one shot.
func EncodedSize(t Tuple, c Content) int {
	n := 1 + 4 + len(t.Kind()) + 4 + len(t.ID().Node) + 8 + 2
	for _, f := range c {
		n += 4 + len(f.Name) + 1
		switch v := f.Value.(type) {
		case string:
			n += 4 + len(v)
		case int64, float64:
			n += 8
		case bool:
			n++
		case []byte:
			n += 4 + len(v)
		}
	}
	return n
}

// Encode serializes a tuple as (kind, id, content) using a compact
// big-endian binary format. The output is sized exactly, so encoding
// costs a single allocation.
func Encode(t Tuple) ([]byte, error) {
	return AppendEncode(nil, t, t.Content())
}

// AppendEncode appends the serialized form of t, whose content is c, to
// dst and returns the extended slice, growing dst at most once (to the
// exact final size). It lets message framers build a whole packet in
// one buffer; c is t.Content() fetched once by the caller, so sizing
// the packet and writing it read the same slice.
func AppendEncode(dst []byte, t Tuple, c Content) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(c) > math.MaxUint16 {
		return nil, fmt.Errorf("tuple: too many fields (%d)", len(c))
	}
	if need := EncodedSize(t, c); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	b := dst
	b = append(b, codecVersion)
	b = appendString(b, t.Kind())
	b = appendString(b, string(t.ID().Node))
	b = binary.BigEndian.AppendUint64(b, t.ID().Seq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c)))
	for _, f := range c {
		b = appendString(b, f.Name)
		b = append(b, byte(f.Kind()))
		switch v := f.Value.(type) {
		case string:
			b = appendString(b, v)
		case int64:
			b = binary.BigEndian.AppendUint64(b, uint64(v))
		case float64:
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		case bool:
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case []byte:
			b = appendBytes(b, v)
		}
	}
	return b, nil
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
// table absorbs the repeated protocol strings (kind, node id, field
// names); field values are never interned — their cardinality is
// unbounded.
func decodeParts(r *Registry, data []byte) (kind string, id ID, c Content, err error) {
	d, kind, id, err := open(r, data)
	if err != nil {
		return "", ID{}, nil, err
	}
	c = make(Content, 0, d.left)
	for d.left > 0 {
		name, k, b, err := d.field()
		if err != nil {
			return "", ID{}, nil, err
		}
		var val any
		switch k {
		case KindString:
			val = string(b)
		case KindInt:
			val = int64(binary.BigEndian.Uint64(b))
		case KindFloat:
			val = math.Float64frombits(binary.BigEndian.Uint64(b))
		case KindBool:
			val = b[0] != 0
		case KindBytes:
			val = append(make([]byte, 0, len(b)), b...)
		}
		c = append(c, Field{Name: d.intern(name), Value: val})
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
// exactly what DecodeParts rejects, interns the kind and node through
// r, and allocates nothing once those are interned.
func ReadEnvelope(r *Registry, data []byte) (Envelope, error) {
	d, kind, id, err := open(r, data)
	if err != nil {
		return Envelope{}, err
	}
	e := Envelope{Kind: kind, ID: id}
	vals, appAfter := 0, false
	for d.left > 0 {
		name, k, b, err := d.field()
		if err != nil {
			return Envelope{}, err
		}
		if string(name) == ValueField {
			vals, appAfter, e.HasValue = vals+1, false, k == KindFloat
			if e.HasValue {
				e.Value = math.Float64frombits(binary.BigEndian.Uint64(b))
			}
		} else if len(name) == 0 || name[0] != '_' {
			appAfter = true
		}
	}
	e.HasValue = e.HasValue && vals == 1 && !appAfter
	return e, nil
}

// open reads data's header — codec version, kind, id, field count —
// and returns a decoder at the first field. With field, it is the
// binary format's only parser: decodeParts builds content from it,
// ReadEnvelope only looks.
func open(r *Registry, data []byte) (d decoder, kind string, id ID, err error) {
	d = decoder{buf: data, reg: r}
	if v := d.byte(); d.err == nil && v != codecVersion {
		return d, "", ID{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	kind = d.istring()
	id.Node = NodeID(d.istring())
	id.Seq = d.uint64()
	d.left = int(d.uint16())
	return d, kind, id, d.err
}

// field reads the next field: its name, its kind and its value bytes —
// 8 for a number, 1 for a bool, the payload without its length prefix
// for a string or bytes. The slices alias the decoded data.
func (d *decoder) field() (name []byte, k Kind, val []byte, err error) {
	d.left--
	name = d.take(int(d.uint32()))
	k = Kind(d.byte())
	switch k {
	case KindString, KindBytes:
		val = d.take(int(d.uint32()))
	case KindInt, KindFloat:
		val = d.take(8)
	case KindBool:
		val = d.take(1)
	default:
		if d.err == nil {
			d.err = fmt.Errorf("tuple: bad field kind %d", k)
		}
	}
	return name, k, val, d.err
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

type decoder struct {
	buf  []byte
	err  error
	reg  *Registry // optional; enables string interning
	left int       // fields not read yet
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf) < n {
		d.err = ErrShortBuffer
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// istring reads a low-cardinality protocol string (kind, node id),
// interned through the registry so repeated decodes allocate nothing.
func (d *decoder) istring() string {
	return d.intern(d.take(int(d.uint32())))
}

func (d *decoder) intern(b []byte) string {
	if d.reg != nil {
		return d.reg.Intern(b)
	}
	return string(b)
}
