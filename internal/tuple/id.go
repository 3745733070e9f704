package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// NodeID uniquely identifies a TOTA node. Real deployments derive it
// from a hardware address (the paper uses the MAC address); the
// simulator assigns symbolic names.
type NodeID string

// ID uniquely identifies a distributed tuple across the whole network.
// Per the paper (§4.1), contents cannot identify tuples — they change
// during propagation — so each tuple is marked with an id combining the
// injecting node's unique identifier and a per-node progressive counter.
// The id is invisible at the application level; the middleware uses it
// for dedup and maintenance.
type ID struct {
	Node NodeID
	Seq  uint64
}

// IsZero reports whether the id has not been assigned yet.
func (id ID) IsZero() bool { return id.Node == "" && id.Seq == 0 }

// String implements fmt.Stringer, formatting as "node#seq".
func (id ID) String() string {
	return string(id.Node) + "#" + strconv.FormatUint(id.Seq, 10)
}

// ParseID parses the "node#seq" form produced by String.
func ParseID(s string) (ID, error) {
	node, seq, ok := splitID(s)
	if !ok {
		return ID{}, fmt.Errorf("tuple: malformed id %q", s)
	}
	return ID{Node: NodeID(node), Seq: seq}, nil
}

// ParseID parses the "node#seq" form from bytes, interning the node
// name, so a repeated id parses without allocating.
func (r *Registry) ParseID(b []byte) (ID, error) {
	node, seq, ok := splitID(b)
	if !ok {
		return ID{}, fmt.Errorf("tuple: malformed id %q", b)
	}
	return ID{Node: NodeID(r.Intern(node)), Seq: seq}, nil
}

// splitID splits "node#seq" at its last '#'; seq is decimal digits
// within uint64, as strconv.ParseUint(seq, 10, 64) accepts them.
func splitID[T string | []byte](s T) (node T, seq uint64, ok bool) {
	i := len(s) - 1
	for i >= 0 && s[i] != '#' {
		i--
	}
	if i < 0 || i == len(s)-1 {
		return node, 0, false
	}
	for j := i + 1; j < len(s); j++ {
		d := uint64(s[j] - '0')
		if d > 9 || seq > (math.MaxUint64-d)/10 {
			return node, 0, false
		}
		seq = seq*10 + d
	}
	return s[:i], seq, true
}
