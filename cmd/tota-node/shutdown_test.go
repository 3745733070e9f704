package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// TestRunGracefulShutdown drives a full loopback node and stops it with
// SIGTERM: run must return nil (exit 0) after flushing the trace JSONL
// sink, so a supervised stop never truncates the trace mid-write.
func TestRunGracefulShutdown(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	inR, inW := io.Pipe()
	defer inW.Close()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run([]string{
			"-id", "sig-test",
			"-trace.jsonl", traceFile,
			"-trace.flight", "64",
			"-trace.sample", "1",
			"-refresh", "20ms",
		}, inR, outW)
		_ = outW.Close()
		errc <- err
	}()

	// The "listening" banner prints after the signal handler is
	// registered, so once we see it SIGTERM is safe to send.
	sc := bufio.NewScanner(outR)
	listening := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), "listening on") {
			listening = true
			break
		}
	}
	if !listening {
		t.Fatalf("node never announced listening (scan err %v)", sc.Err())
	}
	go func() { _, _ = io.Copy(io.Discard, outR) }()

	// Give the trace pipeline something to flush.
	if _, err := io.WriteString(inW, "gradient sig-demo\n"); err != nil {
		t.Fatal(err)
	}
	// Let a couple of refresh epochs run so the ticker path is live
	// when the signal lands.
	time.Sleep(60 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v on SIGTERM, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("node did not shut down within 10s of SIGTERM")
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace file after shutdown: %v", err)
	}
	if !strings.Contains(string(data), `"inject"`) {
		t.Errorf("flushed trace misses the inject event:\n%s", data)
	}
}

// TestRunShutdownUnderLiveTraffic stops a traced node while a live peer
// floods it: the node must stop its inputs (transport, ticker, gateway)
// before it closes the JSONL sink, or a packet landing in between
// traces into the closed sink and panics on the UDP read loop. The
// transport joins its read loop before it closes the socket, so the
// handler on that loop never sends on a closed socket: a clean stop
// logs no send failure.
func TestRunShutdownUnderLiveTraffic(t *testing.T) {
	// run logs to os.Stderr; capture it for the trials.
	logR, logW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	logged := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(logR)
		logged <- string(b)
	}()
	stderr := os.Stderr
	os.Stderr = logW
	defer func() {
		os.Stderr = stderr
		_ = logW.Close()
		out := <-logged
		if n := strings.Count(out, "send failed"); n != 0 {
			t.Errorf("a clean stop logged %d send failures:\n%s", n, out)
		}
	}()

	peerTr, err := udp.New(udp.Config{NodeID: "live-peer"})
	if err != nil {
		t.Fatal(err)
	}
	peer := core.New(peerTr)
	peerTr.SetHandler(peer)
	peerTr.Start()
	defer peerTr.Close()
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := peer.Inject(pattern.NewFlood("storm", tuple.I("i", int64(i)))); err != nil {
				t.Error(err)
				return
			}
			peer.Refresh()
		}
	}()

	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	for trial := 0; trial < 20; trial++ {
		inR, inW := io.Pipe()
		errc := make(chan error, 1)
		go func() {
			errc <- run([]string{
				"-id", "live-node",
				"-peers", peerTr.Addr(),
				"-trace.jsonl", traceFile,
			}, inR, io.Discard)
		}()
		time.Sleep(100 * time.Millisecond)
		_ = inW.Close()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("trial %d: run: %v", trial, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: node did not stop within 10s of stdin closing", trial)
		}
	}
}
