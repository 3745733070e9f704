package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tota/internal/topology"
	"tota/internal/tuple"
)

// forwarder is a Handler that re-broadcasts every packet it receives
// while the payload's TTL byte is positive — a deterministic traffic
// amplifier that exercises sends-from-handler-callbacks, the path the
// staged merge must keep deterministic.
type forwarder struct {
	ep *SimEndpoint

	mu  sync.Mutex
	log []string
}

func (f *forwarder) HandlePacket(from tuple.NodeID, data []byte) {
	f.mu.Lock()
	f.log = append(f.log, fmt.Sprintf("%s:%x", from, data))
	f.mu.Unlock()
	if len(data) == 0 || data[0] == 0 {
		return
	}
	fwd := make([]byte, len(data))
	copy(fwd, data)
	fwd[0]--
	_ = f.ep.Broadcast(fwd)
}

func (f *forwarder) HandleNeighbor(peer tuple.NodeID, added bool) {}

func (f *forwarder) snapshot() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.log))
	copy(out, f.log)
	return out
}

// runForwardingStorm floods a 5x5 grid with TTL-limited re-broadcasts
// under loss, duplication and shuffled delivery, and returns the global
// Stats plus each node's received-packet sequence.
func runForwardingStorm() (Stats, map[tuple.NodeID][]string) {
	g := topology.Grid(5, 5, 1)
	s := NewSim(g, SimConfig{Shuffle: true, Seed: 7})
	s.SetFaults(Faults{Loss: 0.15, Dup: 0.1})
	fwds := make(map[tuple.NodeID]*forwarder)
	for _, id := range g.Nodes() {
		f := &forwarder{}
		f.ep = s.Attach(id, f)
		fwds[id] = f
	}
	for i := 0; i < 4; i++ {
		payload := make([]byte, 5)
		payload[0] = 6 // TTL
		binary.BigEndian.PutUint32(payload[1:], uint32(i))
		if err := fwds[topology.NodeName(i*7)].ep.Broadcast(payload); err != nil {
			panic(err)
		}
	}
	s.RunUntilQuiet(10000)
	logs := make(map[tuple.NodeID][]string)
	for id, f := range fwds {
		logs[id] = f.snapshot()
	}
	return s.Stats(), logs
}

// stormDigest is the SHA-256 of the storm's stats and every node's
// received-packet sequence.
func stormDigest(st Stats, logs map[tuple.NodeID][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", st)
	ids := make([]tuple.NodeID, 0, len(logs))
	for id := range logs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "%s:%s\n", id, strings.Join(logs[id], " "))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// stormGolden is stormDigest of the storm as recorded at the last
// commit that still had a delivery worker pool, on its serial path — the
// reference every pool size was tested equal to.
const stormGolden = "301c5954725ead25180fc4aa44ff3e28a3665e825e0c6e82587bb9a64aad2749"

// TestForwardingStormGolden is the radio's determinism guarantee: with
// loss, duplication, shuffling and handler re-broadcasts all active, a
// seeded run reproduces the recorded stats and per-node packet logs bit
// for bit.
func TestForwardingStormGolden(t *testing.T) {
	st, logs := runForwardingStorm()
	if st.Delivered == 0 || st.Dropped == 0 {
		t.Fatalf("storm too quiet to be a meaningful test: %+v", st)
	}
	if got := stormDigest(st, logs); got != stormGolden {
		t.Errorf("storm digest %s, recorded %s: stats now %+v", got, stormGolden, st)
	}
}

// TestStepDeterministicAcrossGOMAXPROCS re-runs the storm under
// different GOMAXPROCS settings — the cross-machine reproducibility
// claim: nothing scheduler-dependent may reach delivery order.
func TestStepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	one := stormDigest(runForwardingStorm())
	runtime.GOMAXPROCS(8)
	eight := stormDigest(runForwardingStorm())
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Errorf("GOMAXPROCS=1 vs 8 diverged: %s vs %s", one, eight)
	}
	if one != stormGolden {
		t.Errorf("GOMAXPROCS=1 digest %s, recorded %s", one, stormGolden)
	}
}

// TestSimConcurrentAttachStepSend hammers the Sim from many goroutines
// at once — steppers, senders, attachers, detachers, topology editors —
// to prove memory safety under -race. (Determinism is not expected
// here; that requires the emulator's single-driver discipline.) The
// senders outpace the steppers, so MaxInbound bounds the queue: without
// it the backlog, and each step's share of it, grows until the process
// runs out of memory.
func TestSimConcurrentAttachStepSend(t *testing.T) {
	g := topology.Grid(4, 4, 1)
	s := NewSim(g, SimConfig{Shuffle: true, Seed: 3, MaxInbound: 64})
	s.SetFaults(Faults{Loss: 0.1, Dup: 0.1})
	eps := make([]*SimEndpoint, 0, 16)
	for _, id := range g.Nodes() {
		f := &forwarder{}
		f.ep = s.Attach(id, f)
		eps = append(eps, f.ep)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Stepper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.Step()
		}
	}()
	// Senders.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; !stop.Load(); j++ {
				ep := eps[(i*5+j)%len(eps)]
				_ = ep.Broadcast([]byte{2, byte(j)})
			}
		}(i)
	}
	// Attach/detach churner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; !stop.Load(); j++ {
			id := tuple.NodeID(fmt.Sprintf("x%04d", j%8))
			f := &forwarder{}
			f.ep = s.Attach(id, f)
			s.AddEdge(id, topology.NodeName(j%16))
			_ = f.ep.Broadcast([]byte{1})
			s.Detach(id)
		}
	}()
	// Topology editor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; !stop.Load(); j++ {
			a, b := topology.NodeName(j%16), topology.NodeName((j+5)%16)
			s.RemoveEdge(a, b)
			s.AddEdge(a, b)
		}
	}()

	for i := 0; i < 200; i++ {
		s.Step()
	}
	stop.Store(true)
	wg.Wait()
	s.RunUntilQuiet(10000)
}
