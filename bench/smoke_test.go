package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func wantBenchmarkFile() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// BENCHMARK.json and the tables in main.go must say the same thing, so
// that the driver's contract and the code cannot drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := wantBenchmarkFile()
	strip := func(f *benchmarkFile) { // compare names and reasons, not functions, on a copy
		f.Workloads = append([]workloadDef(nil), f.Workloads...)
		for i := range f.Workloads {
			f.Workloads[i].run = nil
		}
	}
	strip(&got)
	strip(&want)
	if !reflect.DeepEqual(got, want) {
		text, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json does not match the code's tables; the code says:\n%s", text)
	}
}

// Every workload, at a fraction of its size, must emit every declared
// metric — and nothing undeclared — with a finite value, and be correct.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r, err := w.run(options{seed: 1, seconds: 0.4, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			declared := map[string]bool{}
			for _, d := range endToEnd {
				declared[d.Name] = true
				v, ok := r.E2E[d.Name]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present=%v): must be finite and never 0", d.Name, v, ok)
				}
			}
			for _, d := range perLayer {
				declared[d.Name] = true
			}
			for _, m := range []map[string]float64{r.E2E, r.Layer} {
				for name := range m {
					if !declared[name] {
						t.Errorf("metric %s is emitted but not declared", name)
					}
				}
			}
			for _, trace := range []bool{false, true} {
				metrics, err := driverMetrics(r, trace)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics on the driver line, want %d", trace, len(metrics), len(defs))
				}
				for _, d := range defs {
					if mv, ok := metrics[d.Name]; !ok || mv.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s has unit %q (present=%v), want %q", trace, d.Name, mv.Unit, ok, d.Unit)
					}
				}
			}
			// The layers that work on this workload must have reported.
			for _, name := range busyLayers[w.Name] {
				if r.Layer[name] == 0 {
					t.Errorf("per-layer metric %s is 0 on %s, where its layer works", name, w.Name)
				}
			}
		})
	}
}

// busyLayers names, per workload, per-layer metrics that cannot be 0
// there (counters that must be 0 on a healthy run are left out).
var busyLayers = map[string][]string{
	"route3_msg": {"gateway.inject_rpc_p50_us", "gateway.frames_per_delivery", "gateway.encode_frame_ns",
		"tuple.marshal_json_ns", "tuple.unmarshal_json_ns", "tuple.match_ns", "tuple.json_bytes",
		"core.handle_packet_self_p50_us", "core.packets_in_per_delivery", "core.broadcasts_per_delivery", "core.dup_ratio",
		"core.read_ns_per_tuple", "core.inject_ns", "wire.encode_ns", "wire.decode_ns", "wire.msg_bytes",
		"udp.send_p50_us", "udp.hop_gap_p50_us", "udp.datagrams_per_delivery",
		"runtime.allocs_per_delivery", "runtime.alloc_bytes_per_delivery", "runtime.paced_cpu_us_per_delivery",
		"diag.one_in_flight_p50_ms", "diag.trace_overhead_ratio",
		"wf.ingress_us", "wf.udp_send_us", "wf.relay_handle_us", "wf.dest_to_client_us", "wf.sum_over_e2e"},
	// The 1 s refresh epoch may not fall inside a run this short, so the
	// anti-entropy counters are not required here.
	"route3_resident": {"gateway.read_rpc_p50_ms", "wf.sum_over_e2e"},
	"gw_fanout": {"gateway.inject_rpc_p50_us", "gateway.subscribe_p50_us", "gateway.fanout_spread_p50_us",
		"gateway.frames_per_delivery", "gateway.encode_frame_ns", "tuple.match_ns",
		"diag.one_in_flight_p50_ms", "diag.trace_overhead_ratio"},
	"emu_fields": {"sim.rounds_per_s", "sim.sent_per_delivery", "emulator.repair_p50_ms", "emulator.retract_p50_ms",
		"emulator.remove_node_p50_us", "emulator.build_rounds_p50", "topology.recompute_ms",
		"core.handle_packet_self_p50_us", "wire.encode_ns", "wire.decode_ns", "wire.msg_bytes", "diag.trace_overhead_ratio"},
}
