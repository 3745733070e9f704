package overlay

import (
	"math"

	"tota/internal/pattern"
	"tota/internal/tuple"
)

// Tuple kinds used by the overlay.
const (
	// KindKeyed is the content-routed tuple.
	KindKeyed = "tota:keyed"
	// ringInfoName is the node-local tuple holding a peer's ring
	// geometry; Keyed tuples read it from the local space while
	// propagating — the paper's data-adaptive propagation.
	ringInfoName = "_ring"
)

// Keyed modes.
const (
	// ModePut routes a value to the key's owner and stores it there.
	ModePut = "put"
	// ModeGet routes a request to the key's owner, which reacts with a
	// reply.
	ModeGet = "get"
	// ModeReply routes a response back to the asker's ring position.
	ModeReply = "reply"
)

// Keyed is the content-based-routing tuple: it travels the virtual ring
// greedily toward Target, using each traversed node's locally stored
// ring geometry, and is delivered at the peer owning Target.
//
// Content layout: (name=key, payload..., _mode, _target, _best, _asker).
type Keyed struct {
	tuple.Base

	// Key is the application key (the content the routing addresses).
	Key string
	// Payload carries the value (put/reply) or request fields (get).
	Payload tuple.Content
	// Mode is one of ModePut, ModeGet, ModeReply.
	Mode string
	// Target is the ring position the tuple routes to.
	Target float64
	// Best is the smallest clockwise distance to Target seen on this
	// copy's path.
	Best float64
	// Asker is the peer to reply to (get mode).
	Asker tuple.NodeID

	prevBest float64
}

var _ tuple.Tuple = (*Keyed)(nil)

// NewKeyed creates a content-routed tuple for the given key.
func NewKeyed(mode, key string, payload ...tuple.Field) *Keyed {
	return &Keyed{
		Key:      key,
		Payload:  payload,
		Mode:     mode,
		Target:   Hash(key),
		Best:     math.Inf(1),
		prevBest: math.Inf(1),
	}
}

// NewReply creates the response tuple for a get, targeted at the
// asker's ring position.
func NewReply(key string, asker tuple.NodeID, payload ...tuple.Field) *Keyed {
	k := NewKeyed(ModeReply, key, payload...)
	k.Target = Hash(string(asker))
	k.Asker = asker
	return k
}

// Kind implements tuple.Tuple.
func (k *Keyed) Kind() string { return KindKeyed }

// Content implements tuple.Tuple.
func (k *Keyed) Content() tuple.Content {
	return pattern.AppContent(k.Key, k.Payload,
		tuple.S("_mode", k.Mode),
		tuple.F("_target", k.Target),
		tuple.F("_best", k.Best),
		tuple.S("_asker", string(k.Asker)),
	)
}

// ringInfo reads the local peer's ring geometry, if this node is a
// current overlay member (resigned peers keep a marker with member =
// false so in-flight traffic stops treating them as owners).
func ringInfo(store tuple.LocalStore) (pos, pred float64, ok bool) {
	if store == nil {
		return 0, 0, false
	}
	ts := store.Read(pattern.ByName(pattern.KindLocal, ringInfoName))
	if len(ts) == 0 {
		return 0, 0, false
	}
	c := ts[0].Content()
	if f, found := c.Get("member"); found {
		if member, isBool := f.Value.(bool); isBool && !member {
			return 0, 0, false
		}
	}
	return c.GetFloat("pos"), c.GetFloat("pred"), true
}

// delivered reports whether the hook's node owns the target position.
func (k *Keyed) delivered(ctx *tuple.Ctx) bool {
	pos, pred, ok := ringInfo(ctx.Store)
	return ok && owns(pos, pred, k.Target)
}

// Evolve implements tuple.Tuple: the copy absorbs the node's clockwise
// distance to the target into Best.
func (k *Keyed) Evolve(ctx *tuple.Ctx) tuple.Tuple {
	c := *k
	c.prevBest = k.Best
	if pos, _, ok := ringInfo(ctx.Store); ok {
		if d := clockDist(pos, k.Target); d < c.Best {
			c.Best = d
		}
	}
	return &c
}

// ShouldStore implements tuple.Tuple: only the owner keeps the tuple
// (and, for replies, only the asker).
func (k *Keyed) ShouldStore(ctx *tuple.Ctx) bool {
	if !k.delivered(ctx) {
		return false
	}
	if k.Mode == ModeReply {
		return ctx.Self == k.Asker
	}
	return true
}

// ShouldPropagate implements tuple.Tuple: relay only with strict
// clockwise progress, and stop at the owner.
func (k *Keyed) ShouldPropagate(ctx *tuple.Ctx) bool {
	if k.delivered(ctx) {
		return false
	}
	pos, _, ok := ringInfo(ctx.Store)
	if !ok {
		// Not an overlay peer: never relay overlay traffic.
		return ctx.Injected()
	}
	return clockDist(pos, k.Target) < k.prevBest
}

func decodeKeyed(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, meta := pattern.SplitMeta(c)
	key, payload, err := pattern.SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	best := pattern.MetaFloat(meta, "_best", math.Inf(1))
	k := &Keyed{
		Key:      key,
		Payload:  payload,
		Mode:     pattern.MetaString(meta, "_mode", ModePut),
		Target:   pattern.MetaFloat(meta, "_target", 0),
		Best:     best,
		Asker:    tuple.NodeID(pattern.MetaString(meta, "_asker", "")),
		prevBest: best,
	}
	k.SetID(id)
	return k, nil
}

func init() {
	tuple.DefaultRegistry.MustRegister(KindKeyed, decodeKeyed)
}
