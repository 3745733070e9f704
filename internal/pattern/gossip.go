package pattern

import (
	"hash/fnv"

	"tota/internal/tuple"
)

// KindGossip is the registered kind of Gossip tuples.
const KindGossip = "tota:gossip"

// Gossip is a probabilistic flood: each node relays the tuple with
// probability P — the classic epidemic trade of coverage for traffic on
// dense networks. The decision is drawn from a hash of (tuple id, node
// id), so it is deterministic per (tuple, node) and reproducible across
// runs while still independent across nodes. Every reached node stores
// the tuple; the injection node always relays.
//
// Content layout: (name, payload..., _p, _ttl).
type Gossip struct {
	tuple.Base

	Name    string
	Payload tuple.Content
	// P is the per-node relay probability in [0, 1].
	P float64
	// TTL bounds propagation in hops; 0 or negative means unbounded.
	TTL int64
}

var _ tuple.Tuple = (*Gossip)(nil)

// NewGossip creates a gossip tuple with relay probability p.
func NewGossip(name string, p float64, payload ...tuple.Field) *Gossip {
	return &Gossip{Name: name, Payload: payload, P: p}
}

// Within bounds the gossip to ttl hops and returns it.
func (g *Gossip) Within(ttl int64) *Gossip {
	g.TTL = ttl
	return g
}

// Kind implements tuple.Tuple.
func (g *Gossip) Kind() string { return KindGossip }

// Content implements tuple.Tuple.
func (g *Gossip) Content() tuple.Content {
	return AppContent(g.Name, g.Payload, tuple.F("_p", g.P), tuple.I("_ttl", g.TTL))
}

// ShouldStore implements tuple.Tuple: every reached node keeps a copy.
func (g *Gossip) ShouldStore(ctx *tuple.Ctx) bool {
	return g.TTL <= 0 || int64(ctx.Hop) <= g.TTL
}

// ShouldPropagate implements tuple.Tuple: the source always relays;
// other nodes flip the deterministic coin.
func (g *Gossip) ShouldPropagate(ctx *tuple.Ctx) bool {
	if g.TTL > 0 && int64(ctx.Hop) >= g.TTL {
		return false
	}
	if ctx.Injected() {
		return true
	}
	return g.coin(ctx.Self) < g.P
}

// coin hashes (id, node) into [0, 1). The FNV-1a sum is run through a
// splitmix64 avalanche: FNV alone leaves similar inputs correlated in
// the high bits.
func (g *Gossip) coin(node tuple.NodeID) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(g.ID().String()))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(node))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z&(1<<53-1)) / float64(1<<53)
}

func decodeGossip(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, meta := SplitMeta(c)
	name, payload, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	g := &Gossip{
		Name:    name,
		Payload: payload,
		P:       MetaFloat(meta, "_p", 1),
		TTL:     MetaInt(meta, "_ttl", 0),
	}
	g.SetID(id)
	return g, nil
}
