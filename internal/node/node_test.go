package node

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"tota/internal/pattern"
	"tota/internal/transport/udp"
)

func quiet(stderr io.Writer) Env {
	return Env{Stderr: stderr, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// TestRunDumpsFlightOnSignal: a stop whose cause is a Signal dumps the
// flight ring to Env.Stderr; a plain cancel (the shell's quit) does not.
func TestRunDumpsFlightOnSignal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cause error
		dump  bool
	}{
		{"signal", Signal{syscall.SIGTERM}, true},
		{"quit", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			ctx, stop := context.WithCancelCause(context.Background())
			n, err := Run(ctx, Config{ID: "flight-" + tc.name, FlightSize: 16}, quiet(&stderr))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Core.Inject(pattern.NewGradient("g")); err != nil {
				t.Fatal(err)
			}
			stop(tc.cause)
			n.Wait()
			if got := strings.Contains(stderr.String(), `"kind":"inject"`); got != tc.dump {
				t.Errorf("dumped = %v, want %v; stderr:\n%s", got, tc.dump, stderr.String())
			}
		})
	}
}

// TestRunFailsClosed: when assembly fails part-way, Run releases what
// it had opened, so the UDP address is free again.
func TestRunFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"trace file", Config{TraceOut: filepath.Join(t.TempDir(), "missing", "trace.jsonl")}},
		{"gateway", Config{GatewayAddr: "127.0.0.1:-1"}},
		{"obs", Config{ObsAddr: "127.0.0.1:-1", TraceOut: "-"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe, err := udp.New(udp.Config{NodeID: "probe"})
			if err != nil {
				t.Fatal(err)
			}
			addr := probe.Addr()
			_ = probe.Close()

			tc.cfg.ID, tc.cfg.Listen = "fails-closed", addr
			if _, err := Run(context.Background(), tc.cfg, quiet(io.Discard)); err == nil {
				t.Fatal("Run succeeded, want an error")
			}
			again, err := udp.New(udp.Config{NodeID: "again", ListenAddr: addr})
			if err != nil {
				t.Fatalf("address still held after the failed Run: %v", err)
			}
			_ = again.Close()
		})
	}
}
