// Command bench is TOTA's load rig: four workloads, seven end-to-end
// metrics and a per-layer budget, measured on TOTA nodes assembled in
// this process the way cmd/tota-node assembles one, over real loopback
// sockets. README.md in this directory says what each number means and
// which layer should move it; BENCHMARK.json at the repository root is
// the contract the driver runs it by.
//
//	bash bench/run.sh --workload route3_msg --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -workload all -seed 1 -trace 1 -out result.json
//	bash bench/run.sh -check 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// setupRepeats is how many times a workload sets up in one run; setup_s
// is the median and the last set-up is the one measured on. Five, because
// a process's first set-up runs cold (twice the time) and its second
// lukewarm: of three the median was one or the other, of five it is a
// warm one.
const setupRepeats = 5

// scale sizes an operation count that is n at the default -seconds.
// Every count in the rig goes through it, so -seconds stretches or
// shrinks a whole run (the tests use a fraction of a second) and no
// count is sized by a timer.
func (o options) scale(n int) int {
	return max(numWindows, int(math.Round(float64(n)*o.seconds/defaultSeconds)))
}

// repeats is setupRepeats, or 1 on the short runs the tests make.
func (o options) repeats() int {
	if o.seconds < defaultSeconds/4 {
		return 1
	}
	return setupRepeats
}

// minDeliveredRatio is the share of owed deliveries below which a run
// is incorrect.
const minDeliveredRatio = 0.999

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports
// every one. Bound is the relative worsening of the median that counts
// as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"e2e_p50_ms", "ms", "lower", 0.25},
	{"deliveries_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_delivery", "us", "lower", 0.25},
	{"net_bytes_per_delivery", "B", "lower", 0.05},
	{"delivered_ratio", "ratio", "higher", 0.001},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// perLayer is the per-module budget (module.metric). A layer that does
// no work on a workload reports 0 there.
var perLayer = []metricDef{
	{Name: "gateway.inject_rpc_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.read_rpc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.subscribe_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.fanout_spread_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.frames_per_delivery", Unit: "count", Better: "lower"},
	{Name: "gateway.events_dropped", Unit: "count", Better: "lower"},
	{Name: "gateway.encode_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.marshal_json_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.unmarshal_json_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.match_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.json_bytes", Unit: "B", Better: "lower"},
	{Name: "core.handle_packet_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.packets_in_per_delivery", Unit: "count", Better: "lower"},
	{Name: "core.broadcasts_per_delivery", Unit: "count", Better: "lower"},
	{Name: "core.dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.refresh_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.sweep_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.refresh_suppressed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.digests_out_per_epoch", Unit: "count", Better: "lower"},
	{Name: "core.pulls_out", Unit: "count", Better: "lower"},
	{Name: "core.read_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "core.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.msg_bytes", Unit: "B", Better: "lower"},
	{Name: "udp.send_p50_us", Unit: "us", Better: "lower"},
	{Name: "udp.hop_gap_p50_us", Unit: "us", Better: "lower"},
	{Name: "udp.datagrams_per_delivery", Unit: "count", Better: "lower"},
	{Name: "udp.shed", Unit: "count", Better: "lower"},
	{Name: "udp.bad_frames", Unit: "count", Better: "lower"},
	{Name: "udp.send_errors", Unit: "count", Better: "lower"},
	{Name: "sim.rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.sent_per_delivery", Unit: "count", Better: "lower"},
	{Name: "sim.dropped", Unit: "count", Better: "lower"},
	{Name: "emulator.repair_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "emulator.retract_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "emulator.remove_node_p50_us", Unit: "us", Better: "lower"},
	{Name: "emulator.build_rounds_p50", Unit: "count", Better: "lower"},
	{Name: "topology.recompute_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_delivery", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_delivery", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.paced_cpu_us_per_delivery", Unit: "us", Better: "lower"},
	{Name: "diag.one_in_flight_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.e2e_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.e2e_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.gen_late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wf.ingress_us", Unit: "us", Better: "lower"},
	{Name: "wf.udp_send_us", Unit: "us", Better: "lower"},
	{Name: "wf.hop_gap_us", Unit: "us", Better: "lower"},
	{Name: "wf.relay_handle_us", Unit: "us", Better: "lower"},
	{Name: "wf.dest_to_client_us", Unit: "us", Better: "lower"},
	{Name: "wf.sum_over_e2e", Unit: "ratio", Better: "higher"},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(o options) (*result, error)
}

var workloads = []workloadDef{
	{"route3_msg", "content-based routing over a 3-node line: every per-message layer works (client JSON, gateway, engine, wire, UDP), nothing else does", func(o options) (*result, error) {
		return runRoute3("route3_msg", false, o)
	}},
	{"route3_resident", "the same messages beside 1,000 resident gradients and a reader: anti-entropy, Node.mu hold time and the read path work too", func(o options) (*result, error) {
		return runRoute3("route3_resident", true, o)
	}},
	{"gw_fanout", "one node, 200 subscriptions on 2 connections, no peers: the gateway fan-out does all the work, propagation and UDP none", runFanout},
	{"emu_fields", "10,000-node emulated grid, gradient build / node crash repair / retract: engine maintenance and the simulated radio work, sockets and JSON none", runEmu},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options is what one workload run is given.
type options struct {
	seed    int64
	seconds float64 // budget for the measured part on the reference box; scales every count
	trace   bool    // also make the traced run and the probes
	spans   string  // where the traced run writes its spans ("" = nowhere)
}

type phaseInfo struct {
	Name    string  `json:"name"`
	WallS   float64 `json:"wall_s"`
	Samples int     `json:"samples"`
}

// result is everything one workload run produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Phases    []phaseInfo        `json:"phases"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer"`
}

func newResult(name string, o options) *result {
	return &result{Workload: name, Seed: o.seed, Seconds: o.seconds, Correct: true,
		E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *result) phase(name string, wall time.Duration, samples int) {
	r.Phases = append(r.Phases, phaseInfo{Name: name, WallS: wall.Seconds(), Samples: samples})
}

// settle records deliveries owed and correctly made.
func (r *result) settle(owed, good int64) {
	good = max(0, min(good, owed))
	r.Attempted, r.Failed = owed, owed-good
	ratio := float64(good) / float64(max(1, owed))
	r.E2E["delivered_ratio"] = ratio
	if ratio < minDeliveredRatio {
		r.fail(fmt.Sprintf("delivered_ratio %.5f below %.3f", ratio, minDeliveredRatio))
	}
}

func (r *result) fail(note string) {
	r.Correct = false
	r.note(note)
}

// note records and loudly prints something that should not happen on a
// healthy run.
func (r *result) note(s string) {
	r.Notes = append(r.Notes, s)
	fmt.Fprintf(os.Stderr, "!!! %s: %s\n", r.Workload, s)
}

func (r *result) count(what string, n int64) {
	if n != 0 {
		r.note(fmt.Sprintf("%d %s", n, what))
	}
}

// loudLayerCounters notes every named per-layer counter that is not 0.
func (r *result) loudLayerCounters(names ...string) {
	for _, n := range names {
		if v := r.Layer[n]; v != 0 {
			r.note(fmt.Sprintf("%s = %g (expected 0)", n, v))
		}
	}
}

// setUp runs a workload's set-up o.repeats() times and returns the last
// instance, which is the one measured on, and the median set-up time in
// seconds. Each set-up starts from a collected heap, with the previous
// instance closed and unreachable, so none inherits another's garbage.
func setUp[T interface{ close() }](o options, build func() (T, error)) (last T, setupS float64, err error) {
	var zero T
	var setups []float64
	for i := 0; i < o.repeats(); i++ {
		if i > 0 {
			last.close()
			last = zero
		}
		runtime.GC()
		t0 := now()
		if last, err = build(); err != nil {
			return zero, 0, err
		}
		setups = append(setups, (now() - t0).Seconds())
	}
	return last, median(setups), nil
}

// mark is a reading of the two clocks a window is charged against.
type mark struct{ wall, cpu time.Duration }

func takeMark() mark { return mark{wall: now(), cpu: cpuTime()} }

// windowRates turns the marks taken at the window boundaries of a phase
// (marks[0] at its start) and the deliveries made in each window into
// the phase's two timing metrics: the median over windows of deliveries
// per wall second and of CPU µs per delivery. A window whose closing
// mark was never taken (its last delivery never came) is left out.
func windowRates(marks []mark, deliveries []float64) (perS, cpuUS float64, err error) {
	var rates, cpus []float64
	for w, n := range deliveries {
		a, b := marks[w], marks[w+1]
		if b.wall <= a.wall || n <= 0 {
			continue
		}
		rates = append(rates, n/(b.wall-a.wall).Seconds())
		cpus = append(cpus, us(b.cpu-a.cpu)/n)
	}
	if len(rates) == 0 {
		return 0, 0, errors.New("no window of the saturating phase completed")
	}
	return median(rates), median(cpus), nil
}

// medianPerWindow returns the median over windows of the growth of a
// counter read at the window boundaries (marks[0] at the start of the
// phase) per delivery made in the window. The counter is the loopback
// interface's, which everything else on the machine shares: a burst of
// foreign traffic lands in a window or two and moves nothing. A window
// whose closing mark was never taken is left out.
func medianPerWindow(marks []int64, deliveries []float64) float64 {
	var per []float64
	for w, n := range deliveries {
		if marks[w+1] > 0 && n > 0 {
			per = append(per, float64(marks[w+1]-marks[w])/n)
		}
	}
	return median(per)
}

// windowCounts returns how many of n operations fall in each window.
func windowCounts(bounds []int, perOp float64) []float64 {
	out := make([]float64, len(bounds)-1)
	for w := range out {
		out[w] = float64(bounds[w+1]-bounds[w]) * perOp
	}
	return out
}

// runtimeLayer fills the allocator's per-layer metrics for the span
// between two meter readings.
func runtimeLayer(l map[string]float64, a, b meter, deliveries float64) {
	l["runtime.allocs_per_delivery"] = float64(b.mallocs-a.mallocs) / deliveries
	l["runtime.alloc_bytes_per_delivery"] = float64(b.bytes-a.bytes) / deliveries
	l["runtime.gc_cycles"] = float64(b.gcs - a.gcs)
}

// provenance is the stamp every result file carries.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func stamp() provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Kernel: "unknown",
		Network: "loopback, in-process fleet"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(data))
	}
	return p
}

// resultFile is what -out writes.
type resultFile struct {
	Provenance provenance `json:"provenance"`
	Results    []*result  `json:"results"`
}

func writeResultFile(path string, results []*result) error {
	data, err := json.MarshalIndent(resultFile{Provenance: stamp(), Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverMetrics picks the metrics the contract wants for the trace
// mode: every end-to-end metric untraced, every per-layer metric traced.
func driverMetrics(r *result, trace bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	if !trace {
		for _, d := range endToEnd {
			v, ok := r.E2E[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: end-to-end metric %s missing or not finite", r.Workload, d.Name)
			}
			out[d.Name] = metricValue{v, d.Unit}
		}
		return out, nil
	}
	for _, d := range perLayer {
		v := r.Layer[d.Name] // a layer idle on this workload reports 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: per-layer metric %s not finite", r.Workload, d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// printMetrics writes every metric as "workload/metric value unit".
func printMetrics(r *result) {
	line := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(os.Stderr, "%s/%s %.6g %s\n", r.Workload, d.Name, v, d.Unit)
			}
		}
	}
	line(endToEnd, r.E2E)
	line(perLayer, r.Layer)
	for _, p := range r.Phases {
		fmt.Fprintf(os.Stderr, "%s/phase.%s %.3f s, %d samples\n", r.Workload, p.Name, p.WallS, p.Samples)
	}
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run, or \"all\" (each in a process of its own)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "budget for the measured part; scales every operation count")
	trace := fs.Int("trace", 0, "1: also make the traced run and the probes, and print the per-layer metrics")
	out := fs.String("out", "", "write the full result (provenance, every metric, phases) to this file")
	spans := fs.String("spans", "", "with -trace 1: write the traced run's spans to this file as JSON lines")
	check := fs.Int("check", 0, "self-agreement: run every workload N times, twice, and compare the medians")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if *check > 0 {
		return checkAgreement(*check, *seed, *seconds)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if *workload == "all" {
		var results []*result
		code := 0
		for _, w := range workloads {
			r, err := runChild(w.Name, o)
			if err != nil {
				return 2, err
			}
			printMetrics(r)
			if !r.Correct {
				code = 1
			}
			results = append(results, r)
		}
		if *out != "" {
			return code, writeResultFile(*out, results)
		}
		return code, nil
	}
	w := findWorkload(*workload)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	r, err := w.run(o)
	if err != nil {
		return 2, err
	}
	r.Layer["runtime.peak_rss_mb"] = peakRSSMB()
	printMetrics(r)
	if *out != "" {
		if err := writeResultFile(*out, []*result{r}); err != nil {
			return 2, err
		}
	}
	metrics, err := driverMetrics(r, o.trace)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics})
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1, nil
	}
	return 0, nil
}
