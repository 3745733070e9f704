package main

import (
	"bytes"
	"io"
	"os"
	osexec "os/exec"
	"strings"
	"testing"
	"time"

	"tota/internal/core"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// crashPeerEnv names the peer address a re-executed test binary dials
// when it runs as the crashing node of TestRunFlightDumpOnPeerPanic.
const crashPeerEnv = "TOTA_NODE_CRASH_PEER"

const crashKind = "test:crash"

// crashOnArrive is set only in the crashing child process.
var crashOnArrive bool

// crashTuple floods like any tuple; in the crashing child its OnArrive
// hook panics.
type crashTuple struct{ tuple.Base }

func (*crashTuple) Kind() string           { return crashKind }
func (*crashTuple) Content() tuple.Content { return tuple.Content{tuple.S("name", "boom")} }
func (*crashTuple) OnArrive(*tuple.Ctx) {
	if crashOnArrive {
		panic("crash tuple arrived")
	}
}

// TestRunFlightDumpOnPeerPanic runs a node with -trace.flight in a
// child process and has a peer deliver a tuple whose hook panics on the
// node's UDP read loop: the crash must print the flight ring before the
// process dies.
func TestRunFlightDumpOnPeerPanic(t *testing.T) {
	if addr := os.Getenv(crashPeerEnv); addr != "" {
		crashOnArrive = true
		tuple.DefaultRegistry.MustRegister(crashKind, func(id tuple.ID, _ tuple.Content) (tuple.Tuple, error) {
			c := &crashTuple{}
			c.SetID(id)
			return c, nil
		})
		// The shell never sees EOF: only the crash ends this process.
		in, _ := io.Pipe()
		_ = run([]string{"-id", "crash-node", "-peers", addr, "-trace.flight", "64", "-refresh", "0"}, in, io.Discard)
		os.Exit(0)
	}

	peerTr, err := udp.New(udp.Config{NodeID: "crash-peer"})
	if err != nil {
		t.Fatal(err)
	}
	peer := core.New(peerTr)
	peerTr.SetHandler(peer)
	peerTr.Start()
	defer peerTr.Close()

	var stderr bytes.Buffer
	cmd := osexec.Command(os.Args[0], "-test.run", "^TestRunFlightDumpOnPeerPanic$")
	cmd.Env = append(os.Environ(), crashPeerEnv+"="+peerTr.Addr())
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	// Re-inject until the child has crashed: the first copies may leave
	// before the child's beacon makes it the peer's neighbour.
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-exited:
			if err == nil {
				t.Fatalf("child exited cleanly; stderr:\n%s", stderr.String())
			}
			if out := stderr.String(); !strings.Contains(out, "flight recorder dump") {
				t.Fatalf("crash printed no flight recorder dump; stderr:\n%s", out)
			}
			return
		case <-tick.C:
			if _, err := peer.Inject(&crashTuple{}); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			_ = cmd.Process.Kill()
			<-exited
			t.Fatalf("child did not crash within 10s; stderr:\n%s", stderr.String())
		}
	}
}
