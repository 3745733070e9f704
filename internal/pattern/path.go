package pattern

import (
	"strings"

	"tota/internal/tuple"
)

// KindPath is the registered kind of Path tuples.
const KindPath = "tota:path"

// Path is a flood that records the route it traveled: each hop appends
// the local node to the path carried in the content, and shorter paths
// supersede longer ones, so at convergence every node stores an actual
// shortest route back to the source — the source-routing overlay some
// MANET protocols build, expressed as a propagation rule.
//
// Content layout: (name, payload..., _path).
type Path struct {
	tuple.Base

	Name    string
	Payload tuple.Content
	// Route is the node sequence from the source to (and including)
	// this copy's node.
	Route []tuple.NodeID
	// TTL bounds propagation in hops; 0 or negative means unbounded.
	TTL int64
}

var _ tuple.Tuple = (*Path)(nil)

// NewPath creates a route-recording tuple.
func NewPath(name string, payload ...tuple.Field) *Path {
	return &Path{Name: name, Payload: payload}
}

// Within bounds propagation to ttl hops and returns the tuple.
func (p *Path) Within(ttl int64) *Path {
	p.TTL = ttl
	return p
}

// Kind implements tuple.Tuple.
func (p *Path) Kind() string { return KindPath }

// Content implements tuple.Tuple.
func (p *Path) Content() tuple.Content {
	parts := make([]string, len(p.Route))
	for i, id := range p.Route {
		parts[i] = string(id)
	}
	return AppContent(p.Name, p.Payload,
		tuple.S("_path", strings.Join(parts, ",")),
		tuple.I("_ttl", p.TTL),
	)
}

// Evolve implements tuple.Tuple, appending the local node to the route.
func (p *Path) Evolve(ctx *tuple.Ctx) tuple.Tuple {
	c := *p
	c.Route = make([]tuple.NodeID, 0, len(p.Route)+1)
	c.Route = append(c.Route, p.Route...)
	c.Route = append(c.Route, ctx.Self)
	return &c
}

// OnArrive implements tuple.Tuple; at the injection node the route
// starts with the source itself.
func (p *Path) OnArrive(ctx *tuple.Ctx) {
	if ctx.Injected() && len(p.Route) == 0 {
		p.Route = []tuple.NodeID{ctx.Self}
	}
}

// ShouldStore implements tuple.Tuple.
func (p *Path) ShouldStore(ctx *tuple.Ctx) bool {
	return p.TTL <= 0 || int64(ctx.Hop) <= p.TTL
}

// ShouldPropagate implements tuple.Tuple.
func (p *Path) ShouldPropagate(ctx *tuple.Ctx) bool {
	// A node already on the route must not extend it again (the
	// breadth-first wave cannot loop anyway thanks to id dedup, but a
	// superseding shorter copy could revisit).
	return p.TTL <= 0 || int64(ctx.Hop) < p.TTL
}

// Supersedes implements tuple.Tuple: shorter routes win.
func (p *Path) Supersedes(old tuple.Tuple) bool {
	op, ok := old.(*Path)
	return ok && len(p.Route) < len(op.Route)
}

func decodePath(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
	app, meta := SplitMeta(c)
	name, payload, err := SplitNamePayload(app)
	if err != nil {
		return nil, err
	}
	p := &Path{Name: name, Payload: payload, TTL: MetaInt(meta, "_ttl", 0)}
	if raw := MetaString(meta, "_path", ""); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			p.Route = append(p.Route, tuple.NodeID(part))
		}
	}
	p.SetID(id)
	return p, nil
}
