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
// amplifier that exercises sends-from-handler-callbacks. It does not
// batch, so its sends commit in delivery order.
type forwarder struct {
	ep *SimEndpoint

	mu  sync.Mutex
	log []string
}

func (f *forwarder) HandlePacket(from tuple.NodeID, data []byte) {
	if fwd := f.receive(from, data); fwd != nil {
		_ = f.ep.Broadcast(fwd)
	}
}

// receive logs a packet and returns the rebroadcast it triggers, or nil
// once the TTL is spent.
func (f *forwarder) receive(from tuple.NodeID, data []byte) []byte {
	f.mu.Lock()
	f.log = append(f.log, fmt.Sprintf("%s:%x", from, data))
	f.mu.Unlock()
	if len(data) == 0 || data[0] == 0 {
		return nil
	}
	fwd := make([]byte, len(data))
	copy(fwd, data)
	fwd[0]--
	return fwd
}

func (f *forwarder) HandleNeighbor(peer tuple.NodeID, added bool) {}

func (f *forwarder) snapshot() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.log))
	copy(out, f.log)
	return out
}

// batchForwarder is a forwarder that batches as core.Node does: the
// rebroadcasts a round's packets trigger are held until EndBatch and
// then leave in the order they were made.
type batchForwarder struct {
	forwarder
	open bool
	held [][]byte
}

func (f *batchForwarder) BeginBatch() bool {
	opened := !f.open
	f.open = true
	return opened
}

func (f *batchForwarder) EndBatch() {
	f.open = false
	for _, fwd := range f.held {
		_ = f.ep.Broadcast(fwd)
	}
	f.held = f.held[:0]
}

func (f *batchForwarder) HandlePacket(from tuple.NodeID, data []byte) {
	if fwd := f.receive(from, data); fwd != nil {
		f.held = append(f.held, fwd)
	}
}

// runForwardingStorm floods a 5x5 grid with TTL-limited re-broadcasts
// under loss, duplication and shuffled delivery, and returns the global
// Stats plus each node's received-packet sequence. With batch set every
// node is a batchForwarder, otherwise a forwarder.
func runForwardingStorm(batch bool) (Stats, map[tuple.NodeID][]string) {
	g := topology.Grid(5, 5, 1)
	s := NewSim(g, SimConfig{Shuffle: true, Seed: 7})
	s.SetFaults(Faults{Loss: 0.15, Dup: 0.1})
	fwds := make(map[tuple.NodeID]*forwarder)
	for _, id := range g.Nodes() {
		bf := &batchForwarder{}
		f := &bf.forwarder
		var h Handler = f
		if batch {
			h = bf
		}
		f.ep = s.Attach(id, h)
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

// stormGolden is stormDigest of the batching storm, recorded on the
// serial path of the last commit that had a delivery worker pool, when
// the forwarder did not batch and the radio sorted each round's sends
// by source: the order that ending batches in node-id order reproduces.
// It was re-recorded once, when Stats lost its Shed field, which changed
// only the printed stats line.
const stormGolden = "f11fe2c48c03bb8bf8b9a562136ac5f2b16cee1a460d7ee836591998a58e8c40"

// TestForwardingStormGolden is the radio's determinism guarantee: with
// loss, duplication, shuffling and batched handler re-broadcasts all
// active, a seeded run reproduces the recorded stats and per-node packet
// logs bit for bit.
func TestForwardingStormGolden(t *testing.T) {
	st, logs := runForwardingStorm(true)
	if st.Delivered == 0 || st.Dropped == 0 {
		t.Fatalf("storm too quiet to be a meaningful test: %+v", st)
	}
	if got := stormDigest(st, logs); got != stormGolden {
		t.Errorf("storm digest %s, recorded %s: stats now %+v", got, stormGolden, st)
	}
}

// TestStepDeterministicAcrossGOMAXPROCS re-runs the storm, batching and
// not, under different GOMAXPROCS settings — the cross-machine
// reproducibility claim: nothing scheduler-dependent may reach delivery
// order.
func TestStepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, batch := range []bool{true, false} {
		prev := runtime.GOMAXPROCS(1)
		one := stormDigest(runForwardingStorm(batch))
		runtime.GOMAXPROCS(8)
		eight := stormDigest(runForwardingStorm(batch))
		runtime.GOMAXPROCS(prev)
		if one != eight {
			t.Errorf("batch=%v: GOMAXPROCS=1 vs 8 diverged: %s vs %s", batch, one, eight)
		}
		if batch && one != stormGolden {
			t.Errorf("GOMAXPROCS=1 digest %s, recorded %s", one, stormGolden)
		}
	}
}

// TestSimConcurrentAttachStepSend hammers the Sim from many goroutines
// at once — steppers, senders, attachers, detachers, topology editors —
// to prove memory safety under -race. (Determinism is not expected
// here; that requires the emulator's single-driver discipline.) The
// senders would outpace the steppers, so the senders and the churner
// start one broadcast each per round, forwarded at most one hop
// further: unpaced, the backlog, and each
// step's share of it, grows until the process runs out of memory. A
// bound on the packets in flight is no pace, because a Step takes every
// due packet out of flight before it delivers them. The forwarders do
// not batch, so every send commits the moment it is made.
func TestSimConcurrentAttachStepSend(t *testing.T) {
	g := topology.Grid(4, 4, 1)
	s := NewSim(g, SimConfig{Shuffle: true, Seed: 3})
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
	// paced reports whether a round has begun since *last.
	paced := func(last *int64) bool {
		if r := s.Rounds(); r != *last {
			*last = r
			return true
		}
		runtime.Gosched()
		return false
	}
	// Senders.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			last := int64(-1)
			for j := 0; !stop.Load(); j++ {
				if !paced(&last) {
					continue
				}
				ep := eps[(i*5+j)%len(eps)]
				_ = ep.Broadcast([]byte{1, byte(j)})
			}
		}(i)
	}
	// Attach/detach churner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := int64(-1)
		for j := 0; !stop.Load(); j++ {
			if !paced(&last) {
				continue
			}
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
