package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("tota_packets_in_total", "Packets.").Add(12)
	r.Histogram("tota_propagation_latency", "Latency.", RoundBuckets).Observe(3)

	srv, err := Serve("127.0.0.1:0", r, Extras{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"tota_packets_in_total 12",
		`tota_propagation_latency_bucket{le="4"} 1`,
		"tota_propagation_latency_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	body, ct := get("/metrics.json")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics.json content type = %q", ct)
	}
	var snaps []Snapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("/metrics.json not JSON: %v\n%s", err, body)
	}
	if len(snaps) != 2 {
		t.Errorf("/metrics.json snapshots = %d, want 2", len(snaps))
	}

	if body, _ := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}

	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// TestServeReadyzAndStore covers the Extras surface: /readyz flips
// 503 → 200 on peer discovery and reports per-scrape announce/suppress
// deltas, and /store.json streams the NDJSON dump verbatim.
func TestServeReadyzAndStore(t *testing.T) {
	var (
		mu   sync.Mutex
		snap = Readiness{StoreSize: 2, Peers: 0, Announced: 5, Suppressed: 40}
	)
	srv, err := Serve("127.0.0.1:0", NewRegistry(), Extras{
		Ready: func() Readiness {
			mu.Lock()
			defer mu.Unlock()
			return snap
		},
		Store: func(w io.Writer) error {
			_, err := io.WriteString(w, `{"kind":"tota:flood","id":"a#1"}`+"\n")
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	readyz := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("/readyz not JSON: %v", err)
		}
		return resp.StatusCode, body
	}

	code, body := readyz()
	if code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Errorf("no peers: status=%d body=%v, want 503/ready=false", code, body)
	}
	if body["store_size"] != 2.0 || body["announced"] != 5.0 {
		t.Errorf("readyz body = %v", body)
	}

	mu.Lock()
	snap.Peers = 3
	snap.Announced, snap.Suppressed = 7, 52
	mu.Unlock()
	code, body = readyz()
	if code != http.StatusOK || body["ready"] != true || body["peers"] != 3.0 {
		t.Errorf("with peers: status=%d body=%v, want 200/ready=true", code, body)
	}
	if body["announced_delta"] != 2.0 || body["suppressed_delta"] != 12.0 {
		t.Errorf("deltas = %v/%v, want 2/12", body["announced_delta"], body["suppressed_delta"])
	}
	if _, body = readyz(); body["announced_delta"] != 0.0 {
		t.Errorf("steady scrape delta = %v, want 0", body["announced_delta"])
	}

	resp, err := http.Get(base + "/store.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dump, _ := io.ReadAll(resp.Body)
	if got := string(dump); got != `{"kind":"tota:flood","id":"a#1"}`+"\n" {
		t.Errorf("/store.json = %q", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/store.json content type = %q", ct)
	}

	// Without Extras the endpoints must not exist (back-compat surface).
	plain, err := Serve("127.0.0.1:0", NewRegistry(), Extras{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	resp, err = http.Get("http://" + plain.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/readyz without Ready: status %d, want 404", resp.StatusCode)
	}
}
