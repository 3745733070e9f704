package testnet

import (
	"testing"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// TestClientFleetConvergedNeedsCurrentEpoch: a client mirror that
// equals the oracle is not converged while its gateway is down, and is
// converged again only once the client has resynced on the gateway's
// new instance.
func TestClientFleetConvergedNeedsCurrentEpoch(t *testing.T) {
	g := topology.New()
	g.AddNode("n")
	sim := transport.NewSim(g, transport.SimConfig{})
	n := core.New(sim.Attach("n", nil))
	sim.Bind("n", n)
	gw, err := gateway.Serve(n, "127.0.0.1:0", gateway.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := gw.Addr()

	f := NewClientFleet(Manifest{Seed: 1, GatewayClients: 1, ClientInjects: 1})
	defer f.Close()
	if err := f.StartNode("n", addr); err != nil {
		t.Fatal(err)
	}
	var oracle map[string][]Entry
	for _, tp := range n.Read(tuple.MatchAll()) {
		if tp.Kind() == pattern.KindFlood {
			oracle = map[string][]Entry{"n": {canonicalEntry(tp)}}
		}
	}
	if oracle == nil {
		t.Fatal("the client's flood is not in the node's store")
	}
	waitConverged := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			ok, why := f.Converged(oracle)
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: not converged: %s", what, why)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitConverged("first gateway")

	// The gateway dies; the mirror still equals the oracle.
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := f.Converged(oracle); ok {
		t.Fatal("converged with the gateway down: a pre-crash mirror counted")
	}

	gw2, err := gateway.Serve(n, addr, gateway.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	waitConverged("restarted gateway")
	if f.Resyncs() == 0 {
		t.Error("converged on the new gateway without a resync")
	}
}
