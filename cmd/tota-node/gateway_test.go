package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tota/internal/gateway"
	"tota/internal/retry"
)

// TestRunGatewayMaxClients boots a node with -gateway.maxclients 1: while
// one client holds its connection, a second connection reads the
// gateway's "client limit reached" error frame.
func TestRunGatewayMaxClients(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run([]string{
			"-id", "gw-cap-test",
			"-gateway.addr", "127.0.0.1:0",
			"-gateway.maxclients", "1",
			"-refresh", "0",
		}, inR, outW)
		_ = outW.Close()
		errc <- err
	}()

	sc := bufio.NewScanner(outR)
	var addr string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "gateway on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("no gateway address announced (scan err %v)", sc.Err())
	}
	go func() { _, _ = io.Copy(io.Discard, outR) }()

	// A ping round trip proves the first client holds the one slot.
	first := gateway.Dial(addr, gateway.ClientConfig{Policy: retry.New(1), RequestTimeout: 3 * time.Second})
	if _, _, err := first.Ping(); err != nil {
		t.Fatalf("first client ping: %v", err)
	}

	nc, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		t.Fatalf("second connection read no frame: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(nc, body); err != nil {
		t.Fatalf("second connection frame truncated: %v", err)
	}
	_ = nc.Close()
	var fr gateway.Frame
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	if fr.Resp == nil || fr.Resp.Err != "gateway: client limit reached" {
		t.Errorf("second connection read %q, want the client limit error", body)
	}

	_ = first.Close()
	if _, err := io.WriteString(inW, "quit\n"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}
