package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"tota/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from a live scrape")

// metricsGolden pins the exposition surface of a fully configured node:
// every family's HELP and TYPE line, sorted.
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

// TestRunObsEndpoint boots a full node with -obs.addr and scrapes it
// over HTTP while the shell is live — the acceptance path for the
// telemetry exposition. The scrape's family list must match
// testdata/metrics.golden (go test -update rewrites it).
func TestRunObsEndpoint(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run([]string{
			"-id", "obs-test",
			"-obs.addr", "127.0.0.1:0",
			"-gateway.addr", "127.0.0.1:0",
			"-trace.jsonl", traceFile,
			"-trace.flight", "128",
			"-trace.sample", "1",
		}, inR, outW)
		_ = outW.Close()
		errc <- err
	}()

	// run prints "telemetry on http://HOST:PORT/metrics" before the
	// shell prompt; scan until we have the scrape address.
	sc := bufio.NewScanner(outR)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "telemetry on http://"); ok {
			base = "http://" + strings.TrimSuffix(rest, "/metrics")
			break
		}
	}
	if base == "" {
		t.Fatalf("no telemetry address announced (scan err %v)", sc.Err())
	}
	// From here the shell output is noise; keep draining it so the
	// shell never blocks writing prompts.
	go func() { _, _ = io.Copy(io.Discard, outR) }()

	// Inject a tuple so the trace pipeline has something to export.
	if _, err := io.WriteString(inW, "gradient demo\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tota_node_packets_in_total",
		"tota_node_dup_dropped_total",
		"tota_node_repairs_total",
		"tota_repair_latency_bucket",
		"tota_udp_datagrams_sent_total",
		"tota_go_goroutines",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A node's tracer never sees a remote inject, so it cannot sample
	// propagation latency and does not expose the family.
	if strings.Contains(string(body), "tota_propagation_latency") {
		t.Error("/metrics exposes tota_propagation_latency, which a real node cannot fill")
	}
	got := surface(string(body))
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
		t.Errorf("/metrics families differ from %s (go test -update rewrites it):\ngot:\n%s", metricsGolden, got)
	}

	resp, err = http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snaps []obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snaps)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snaps) == 0 {
		t.Error("/metrics.json empty")
	}

	// The flight recorder saw the same injection and serves it at
	// /debug/flight in the shared JSONL schema.
	resp, err = http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	flight, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(flight), `"kind":"inject"`) {
		t.Errorf("/debug/flight missing inject event: %q", flight)
	}
	if !strings.Contains(string(flight), `"trace":`) {
		t.Errorf("/debug/flight record lacks trace context despite -trace.sample 1: %q", flight)
	}

	if _, err := io.WriteString(inW, "quit\n"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}

	// The JSONL sink flushed on exit: the injection must be there.
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"inject"`) {
		t.Errorf("trace file missing inject event: %q", data)
	}
}

// TestRunReadyzAndStoreDump scrapes the new readiness and store-dump
// endpoints of a live single node: no peers yet means 503 + ready=false,
// and an injected gradient must appear in the NDJSON store dump — the
// external-verification surface the testnet harness polls.
func TestRunReadyzAndStoreDump(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run([]string{
			"-id", "ready-test",
			"-obs.addr", "127.0.0.1:0",
			"-refresh", "25ms",
		}, inR, outW)
		_ = outW.Close()
		errc <- err
	}()
	sc := bufio.NewScanner(outR)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "telemetry on http://"); ok {
			base = "http://" + strings.TrimSuffix(rest, "/metrics")
			break
		}
	}
	if base == "" {
		t.Fatalf("no telemetry address announced (scan err %v)", sc.Err())
	}
	go func() { _, _ = io.Copy(io.Discard, outR) }()

	if _, err := io.WriteString(inW, "gradient ready-demo\n"); err != nil {
		t.Fatal(err)
	}

	// The store dump is eventually consistent with the shell command;
	// poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var dump string
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/store.json")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		dump = string(body)
		if strings.Contains(dump, `"kind":"tota:gradient"`) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(dump, `"kind":"tota:gradient"`) || !strings.Contains(dump, `"_val"`) {
		t.Errorf("/store.json missing injected gradient: %q", dump)
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatalf("/readyz decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready["ready"] != false {
		t.Errorf("peerless node: status=%d ready=%v, want 503/false", resp.StatusCode, ready["ready"])
	}
	if ready["store_size"] != 1.0 {
		t.Errorf("readyz store_size = %v, want 1", ready["store_size"])
	}

	if _, err := io.WriteString(inW, "quit\n"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}
