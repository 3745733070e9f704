package emulator

import (
	"flag"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from a fresh registration")

// metricsGolden pins the series World.RegisterMetrics exposes: every
// family's HELP and TYPE line, sorted.
const metricsGolden = "testdata/metrics.golden"

// surface returns the sorted # HELP and # TYPE lines of a Prometheus
// exposition.
func surface(exposition string) string {
	var lines []string
	for _, l := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(l, "# HELP ") || strings.HasPrefix(l, "# TYPE ") {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// samples parses the unlabelled samples of a Prometheus exposition.
func samples(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, l := range strings.Split(exposition, "\n") {
		name, val, ok := strings.Cut(l, " ")
		if !ok || strings.HasPrefix(l, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", l, err)
		}
		out[name] = v
	}
	return out
}

// settledGrid registers a small grid's metrics, then settles one
// gradient, runs one refresh pass, settles again and publishes the
// rollup, so every scraped counter has a final value to compare.
func settledGrid(t *testing.T) (*World, string) {
	t.Helper()
	w := New(Config{Graph: topology.Grid(4, 4, 1), Loss: 0.1, Seed: 3})
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}
	w.Settle(10000)
	w.RefreshAll()
	w.Settle(10000)
	w.PublishRollup()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return w, b.String()
}

// TestMetricsSurfaceGolden: the emulation's exposed families match
// testdata/metrics.golden (go test -update rewrites it).
func TestMetricsSurfaceGolden(t *testing.T) {
	_, exposition := settledGrid(t)
	got := surface(exposition)
	if *update {
		if err := os.WriteFile(metricsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("families differ from %s (go test -update rewrites it):\ngot:\n%s", metricsGolden, got)
	}
}

// TestNodeAndRadioSeriesMatchTotals: each node-counter and radio series
// an emulation exposes reads the same value as the matching
// World.TotalStats or Sim().Stats field.
func TestNodeAndRadioSeriesMatchTotals(t *testing.T) {
	w, exposition := settledGrid(t)
	got := samples(t, exposition)
	for source, stats := range map[string]any{"TotalStats()": w.TotalStats(), "Sim().Stats()": w.Sim().Stats()} {
		v := reflect.ValueOf(stats)
		for _, f := range reflect.VisibleFields(v.Type()) {
			name := f.Tag.Get("metric")
			have, ok := got[name]
			if want := float64(v.FieldByIndex(f.Index).Int()); !ok || have != want {
				t.Errorf("%s = %v (exposed %v), %s.%s = %v", name, have, ok, source, f.Name, want)
			}
		}
	}
	if got["tota_node_stored_total"] == 0 || got["tota_digests_out_total"] == 0 || got["tota_radio_dropped_total"] == 0 {
		t.Errorf("scenario too quiet to compare: %v", got)
	}
}
