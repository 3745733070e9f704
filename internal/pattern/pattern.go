// Package pattern is the TOTA propagation-pattern library: the concrete
// tuple classes the paper derives from its abstract Tuple by overriding
// the breadth-first expanding-ring propagation. It provides
//
//   - Gradient: the self-maintained hop-count field (the paper's
//     "structure of space"), optionally scope-bounded;
//   - Flood: plain network-wide (or TTL-bounded) dissemination;
//   - Spatial: a gradient confined to a physical radius around the
//     source, using localization data;
//   - Directional: a flood confined to an angular sector from the
//     source ("propagating in a specific direction");
//   - Downhill: a non-storing message that descends a gradient
//     structure toward its source, falling back to flooding when the
//     structure is absent (the paper's §5.1 routing);
//   - Flock: the §5.3 motion-coordination field whose perceived value
//     is minimal at a target hop distance from the source;
//   - Eraser: a flood that deletes matching tuples as it propagates
//     ("propagating by deleting specific tuples");
//   - Local: a tuple that never leaves the node.
//
// All kinds register themselves in tuple.DefaultRegistry; Register adds
// them to custom registries.
package pattern

import (
	"fmt"
	"math"
	"strings"

	"tota/internal/tuple"
)

// Registered tuple kinds.
const (
	KindGradient    = "tota:gradient"
	KindFlood       = "tota:flood"
	KindSpatial     = "tota:spatial"
	KindDirectional = "tota:directional"
	KindDownhill    = "tota:downhill"
	KindFlock       = "tota:flock"
	KindEraser      = "tota:eraser"
	KindLocal       = "tota:local"
)

// metaPrefix marks internal trailing content fields; positional template
// matching over the application-visible prefix is unaffected because
// meta fields always come last.
const metaPrefix = "_"

// SplitMeta separates a decoded content into its application prefix and
// its trailing meta fields. The meta fields are a view of c, looked up
// by the Meta* accessors.
func SplitMeta(c tuple.Content) (app, meta tuple.Content) {
	cut := len(c)
	for cut > 0 && strings.HasPrefix(c[cut-1].Name, metaPrefix) {
		cut--
	}
	return c[:cut], c[cut:]
}

// metaField returns the meta field called name. A name repeated in
// decoded input resolves to its last occurrence.
func metaField(meta tuple.Content, name string) (tuple.Field, bool) {
	for i := len(meta) - 1; i >= 0; i-- {
		if meta[i].Name == name {
			return meta[i], true
		}
	}
	return tuple.Field{}, false
}

func MetaFloat(meta tuple.Content, name string, def float64) float64 {
	if f, ok := metaField(meta, name); ok {
		if v, ok := f.Value.(float64); ok {
			return v
		}
	}
	return def
}

func MetaInt(meta tuple.Content, name string, def int64) int64 {
	if f, ok := metaField(meta, name); ok {
		if v, ok := f.Value.(int64); ok {
			return v
		}
	}
	return def
}

func MetaString(meta tuple.Content, name, def string) string {
	if f, ok := metaField(meta, name); ok {
		if v, ok := f.Value.(string); ok {
			return v
		}
	}
	return def
}

func MetaBool(meta tuple.Content, name string, def bool) bool {
	if f, ok := metaField(meta, name); ok {
		if v, ok := f.Value.(bool); ok {
			return v
		}
	}
	return def
}

// AppContent returns the canonical content: the name field, the payload
// and then the meta fields, in one exactly sized allocation.
func AppContent(name string, payload tuple.Content, meta ...tuple.Field) tuple.Content {
	c := make(tuple.Content, 0, 1+len(payload)+len(meta))
	c = append(c, tuple.S("name", name))
	c = append(c, payload...)
	return append(c, meta...)
}

// SplitNamePayload recovers (name, payload) from an application prefix.
func SplitNamePayload(app tuple.Content) (string, tuple.Content, error) {
	if len(app) == 0 || app[0].Name != "name" {
		return "", nil, fmt.Errorf("pattern: content missing leading name field: %v", app)
	}
	name, ok := app[0].Value.(string)
	if !ok {
		return "", nil, fmt.Errorf("pattern: name field is not a string: %v", app[0])
	}
	return name, app[1:], nil
}

// ByName builds the template matching tuples of the given kind with the
// given application name — the common read/subscribe query.
func ByName(kind, name string) tuple.Template {
	return tuple.Match(kind, tuple.Eq(tuple.S("name", name)))
}

// Register adds every pattern kind to a registry.
func Register(r *tuple.Registry) error {
	for kind, f := range factories() {
		if err := r.Register(kind, f); err != nil {
			return err
		}
	}
	return nil
}

func factories() map[string]tuple.Factory {
	return map[string]tuple.Factory{
		KindGradient:    decodeGradient,
		KindFlood:       decodeFlood,
		KindSpatial:     decodeSpatial,
		KindDirectional: decodeDirectional,
		KindDownhill:    decodeDownhill,
		KindFlock:       decodeFlock,
		KindEraser:      decodeEraser,
		KindLocal:       decodeLocal,
		KindGossip:      decodeGossip,
		KindPath:        decodePath,
	}
}

func init() {
	// Codec kind registry: the accepted use of init (pluggable encoding
	// registries).
	if err := Register(tuple.DefaultRegistry); err != nil {
		panic(err)
	}
}

// inf is the unbounded scope sentinel.
func inf() float64 { return math.Inf(1) }
