package tuple_test

import (
	"math"
	"sort"
	"testing"

	_ "tota/internal/agg"
	_ "tota/internal/pattern"
	"tota/internal/tuple"
)

// TestMaintainedValueField holds every maintained kind in the default
// registry to the tuple.Maintained contract the engine relies on when it
// reads an announcement's value from its bytes: WithValue(v) encodes v
// where ReadEnvelope finds it.
func TestMaintainedValueField(t *testing.T) {
	kinds := tuple.DefaultRegistry.Kinds()
	sort.Strings(kinds)
	// The probe content every registered factory accepts: a leading name
	// (the pattern kinds) and a valid aggregation op (agg.Query).
	probe := tuple.Content{tuple.S("name", "probe"), tuple.I("_op", 1)}
	id := tuple.ID{Node: "n", Seq: 1}
	maintained := 0
	for _, kind := range kinds {
		built, err := tuple.DefaultRegistry.New(kind, id, probe.Clone())
		if err != nil {
			t.Errorf("kind %q does not build from the probe content (extend the probe): %v", kind, err)
			continue
		}
		m, ok := built.(tuple.Maintained)
		if !ok {
			continue
		}
		maintained++
		for _, v := range []float64{0, 1.5, math.Inf(1)} {
			data, err := tuple.Encode(m.WithValue(v))
			if err != nil {
				t.Fatalf("%s: encode: %v", kind, err)
			}
			env, err := tuple.ReadEnvelope(nil, data)
			if err != nil {
				t.Fatalf("%s: ReadEnvelope: %v", kind, err)
			}
			if !env.HasValue || env.Value != v || env.Kind != kind || env.ID != id {
				t.Errorf("%s.WithValue(%g): envelope %+v", kind, v, env)
			}
		}
	}
	if maintained < 4 { // gradient, spatial, flock, aggregation query
		t.Errorf("found %d maintained kinds in %v", maintained, kinds)
	}
}
