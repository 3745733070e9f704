package obs_test

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/gateway"
	"tota/internal/obs"
	"tota/internal/transport"
	"tota/internal/transport/udp"
)

var metricName = regexp.MustCompile(`^tota_[a-z0-9_]+$`)

// TestStatsDeclarations holds every tagged Stats struct to the rules
// RegisterStats relies on: each counter field of the four counter
// families carries a metric and a help tag, names are unique across all
// families and well formed, and registration makes a _total name a
// counter and any other a gauge. The emulator's Rollup tags only its
// emulation-only fields, and udp.Stats.Shed, which always reads zero and
// is kept only for the load rig, carries no tag.
func TestStatsDeclarations(t *testing.T) {
	families := []struct {
		typ        reflect.Type
		allCounted bool
	}{
		{reflect.TypeFor[core.Stats](), true},
		{reflect.TypeFor[transport.Stats](), true},
		{reflect.TypeFor[udp.Stats](), true},
		{reflect.TypeFor[gateway.Stats](), true},
		{reflect.TypeFor[emulator.Rollup](), false},
	}
	untagged := map[string]bool{"udp.Stats.Shed": true}
	declared := make(map[string]string)
	for _, fam := range families {
		for _, f := range reflect.VisibleFields(fam.typ) {
			where := fam.typ.String() + "." + f.Name
			name, ok := f.Tag.Lookup("metric")
			if !ok {
				if fam.allCounted && f.IsExported() && !untagged[where] {
					t.Errorf("%s has no metric tag", where)
				}
				continue
			}
			if f.Tag.Get("help") == "" {
				t.Errorf("%s (%s) has no help tag", where, name)
			}
			if !metricName.MatchString(name) {
				t.Errorf("%s: metric name %q does not match %s", where, name, metricName)
			}
			if prev, dup := declared[name]; dup {
				t.Errorf("%s and %s both declare %s", prev, where, name)
			}
			declared[name] = where
		}
	}

	reg := obs.NewRegistry()
	obs.RegisterStats(reg, func() core.Stats { return core.Stats{} })
	obs.RegisterStats(reg, func() transport.Stats { return transport.Stats{} })
	obs.RegisterStats(reg, func() udp.Stats { return udp.Stats{} })
	obs.RegisterStats(reg, func() gateway.Stats { return gateway.Stats{} })
	obs.RegisterStats(reg, func() emulator.Rollup { return emulator.Rollup{} })
	snaps := reg.Snapshots()
	if len(snaps) != len(declared) {
		t.Errorf("registered %d series for %d declared names", len(snaps), len(declared))
	}
	for _, s := range snaps {
		want := "gauge"
		if strings.HasSuffix(s.Name, "_total") {
			want = "counter"
		}
		if s.Type != want {
			t.Errorf("%s registered as a %s, want %s", s.Name, s.Type, want)
		}
	}
}

// TestRegisterStatsReadsSnapshot: each series reads its field from a
// fresh snapshot at scrape time, integer and float fields alike, and
// untagged fields are not exposed.
func TestRegisterStatsReadsSnapshot(t *testing.T) {
	type sample struct {
		N     int64   `metric:"tota_test_n_total" help:"n."`
		X     float64 `metric:"tota_test_x" help:"x."`
		Plain int
	}
	cur := sample{N: 1, X: 0.5}
	reg := obs.NewRegistry()
	obs.RegisterStats(reg, func() sample { return cur }, obs.L("node", "a"))
	cur = sample{N: 7, X: 2.5, Plain: 9}
	got := make(map[string]float64)
	for _, s := range reg.Snapshots() {
		got[s.Name] = s.Value
		if s.Labels != `{node="a"}` {
			t.Errorf("%s labels = %s", s.Name, s.Labels)
		}
	}
	if len(got) != 2 || got["tota_test_n_total"] != 7 || got["tota_test_x"] != 2.5 {
		t.Errorf("scraped %v, want n=7 x=2.5 only", got)
	}
	if obs.MetricName[sample]("N") != "tota_test_n_total" || obs.MetricName[sample]("Plain") != "" {
		t.Error("MetricName does not read the metric tag")
	}
}
