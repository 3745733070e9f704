package transport

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"tota/internal/topology"
	"tota/internal/tuple"
)

// Sim errors.
var (
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrNotNeighbor = errors.New("transport: destination is not a neighbor")
)

// SimConfig tunes the simulated radio; SetFaults sets its faults. The
// radio bounds no queue, so no packet is ever shed for backlog.
type SimConfig struct {
	// Shuffle delivers each round's packets in a random (seeded)
	// permutation instead of send order, exploring the delivery-order
	// races the paper's §6 worries about.
	Shuffle bool
	// Seed makes loss and shuffle decisions reproducible.
	Seed int64
}

// Sim is a deterministic simulated radio network. Nodes attach to it to
// obtain endpoints; the emulator (or a test) drives time by calling
// Step, which delivers every packet whose latency has elapsed (at least
// one Step). Topology edits notify the attached handlers immediately.
//
// Determinism: Step delivers on the calling goroutine in due order and
// then ends the batches it opened in ascending node-id order; every send
// commits, drawing loss from a seeded source, the moment it is made, and
// neighbor snapshots are sorted. All methods are safe for concurrent use
// (telemetry scrapes Stats, Pending and Rounds mid-step), but determinism
// additionally requires the usual emulator discipline: handler callbacks
// (and their reactions) send only from the node being delivered to, and
// topology edits happen only from the step-driving goroutine between
// Step calls.
type Sim struct {
	cfg SimConfig

	// rounds counts Step calls (atomic: scraped lock-free as the trace
	// clock and the rounds-per-second throughput metric).
	rounds atomic.Int64

	mu       sync.Mutex
	graph    *topology.Graph
	handlers map[tuple.NodeID]Handler
	inflight []simPacket
	rng      *rand.Rand
	stats    Stats
	// Round buffers live as long as the Sim, like inflight's backing
	// array, and their slots are zeroed after each use so they pin no
	// payloads. A Step takes due and hs under mu and hands them back
	// under mu; nbrs is touched only under mu.
	due  []simPacket
	hs   []recipient
	nbrs []tuple.NodeID

	// faults is replaced whole by SetFaults, only between Steps (the
	// same discipline as topology edits), and read under mu.
	faults Faults
}

// batcher is a Handler that holds the sends its inputs trigger until
// EndBatch (core.Node): Step makes each round one batch per node and
// ends them in node-id order, so a round's sends leave in (source node,
// send sequence) order, the order every seeded result on file drew its
// loss and duplication in. BeginBatch reports whether it opened the
// batch, so Step ends it once.
type batcher interface {
	BeginBatch() bool
	EndBatch()
}

type simPacket struct {
	from, to tuple.NodeID
	data     []byte
	dueRound int
}

// recipient is a due packet's destination and its handler, resolved
// once per round.
type recipient struct {
	id tuple.NodeID
	h  Handler
}

// NewSim creates a simulated network over the given (shared, live)
// topology graph.
func NewSim(g *topology.Graph, cfg SimConfig) *Sim {
	return &Sim{
		cfg:      cfg,
		graph:    g,
		handlers: make(map[tuple.NodeID]Handler),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Graph returns the underlying topology graph.
func (s *Sim) Graph() *topology.Graph { return s.graph }

// SetFaults replaces the radio's whole fault state (failure
// injection). Already queued packets keep their due round.
func (s *Sim) SetFaults(f Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
}

// Faults returns the current fault state. Its maps are the radio's
// own: read them, never change them.
func (s *Sim) Faults() Faults {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// Attach registers a node and returns its endpoint. The handler may be
// nil initially and set later with Bind (the middleware node needs the
// endpoint at construction time).
func (s *Sim) Attach(id tuple.NodeID, h Handler) *SimEndpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graph.AddNode(id)
	s.handlers[id] = h
	return &SimEndpoint{net: s, id: id}
}

// Bind sets or replaces the handler for an attached node.
func (s *Sim) Bind(id tuple.NodeID, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[id] = h
}

// Detach removes a node from the network (a crash): its links drop, its
// queued packets are discarded, and surviving neighbors are notified.
func (s *Sim) Detach(id tuple.NodeID) {
	s.mu.Lock()
	events := s.graph.RemoveNode(id)
	delete(s.handlers, id)
	kept := s.inflight[:0]
	for _, p := range s.inflight {
		if p.from != id && p.to != id {
			kept = append(kept, p)
		}
	}
	clearPacketTail(s.inflight, len(kept))
	s.inflight = kept
	s.mu.Unlock()
	s.notify(events)
}

// ApplyEdgeEvents forwards externally produced topology changes (e.g.
// from Graph.Recompute or manual edits) to the affected handlers. The
// graph itself must already reflect the change.
func (s *Sim) ApplyEdgeEvents(events []topology.EdgeEvent) {
	s.notify(events)
}

// AddEdge links two nodes and notifies both handlers.
func (s *Sim) AddEdge(a, b tuple.NodeID) {
	if s.graph.AddEdge(a, b) {
		s.notify([]topology.EdgeEvent{{A: a, B: b, Added: true}})
	}
}

// RemoveEdge unlinks two nodes and notifies both handlers.
func (s *Sim) RemoveEdge(a, b tuple.NodeID) {
	if s.graph.RemoveEdge(a, b) {
		s.notify([]topology.EdgeEvent{{A: a, B: b}})
	}
}

func (s *Sim) notify(events []topology.EdgeEvent) {
	for _, e := range events {
		s.mu.Lock()
		ha, hb := s.handlers[e.A], s.handlers[e.B]
		s.mu.Unlock()
		if ha != nil {
			ha.HandleNeighbor(e.B, e.Added)
		}
		if hb != nil {
			hb.HandleNeighbor(e.A, e.Added)
		}
	}
}

// Step advances simulated time by one round, delivering every due packet
// to its handler in due order on the calling goroutine and returning the
// number delivered. Once every packet of the round has been handled, it
// ends the batches it opened in ascending node-id order. A handler that
// does not batch sends, and its sends commit, in delivery order.
func (s *Sim) Step() int {
	s.rounds.Add(1)
	s.mu.Lock()
	// Age packets in place: surviving packets keep the inflight backing
	// array (no per-round reallocation), due ones are copied out.
	due := s.due[:0]
	kept := s.inflight[:0]
	for _, p := range s.inflight {
		p.dueRound--
		if p.dueRound <= 0 {
			if cut := s.faults.Cut; len(cut) != 0 && cut[p.from] != cut[p.to] {
				// The cut severed this packet mid-flight: discard it
				// silently (no neighbor event — partitions are exactly
				// the fault where nobody tells you).
				s.stats.Blocked++
				continue
			}
			if s.faults.Paused[p.to] {
				// Destination is paused: hold the packet until it
				// resumes by keeping it one round from due.
				p.dueRound = 1
				kept = append(kept, p)
				continue
			}
			due = append(due, p)
		} else {
			kept = append(kept, p)
		}
	}
	clearPacketTail(s.inflight, len(kept))
	s.inflight = kept
	if s.cfg.Shuffle {
		s.rng.Shuffle(len(due), func(i, j int) {
			due[i], due[j] = due[j], due[i]
		})
	}
	if len(due) == 0 {
		s.mu.Unlock()
		return 0
	}
	// Resolve handlers once under the lock; packets to unknown nodes
	// drop immediately.
	hs := slices.Grow(s.hs[:0], len(due))[:len(due)]
	s.due, s.hs = nil, nil
	for i, p := range due {
		hs[i] = recipient{p.to, s.handlers[p.to]}
		if hs[i].h == nil {
			s.stats.Dropped++
		}
	}
	s.mu.Unlock()
	var delivered, droppedLinks int64
	opened := 0 // hs[:opened] collects the batches this round opened
	for i, p := range due {
		r := hs[i]
		if r.h == nil {
			continue
		}
		// The link check is per packet: earlier rounds' topology edits
		// gate delivery of packets already in flight.
		if !s.graph.HasEdge(p.from, p.to) {
			droppedLinks++
			continue
		}
		if b, ok := r.h.(batcher); ok && b.BeginBatch() {
			hs[opened] = r
			opened++
		}
		r.h.HandlePacket(p.from, p.data)
		delivered++
	}
	slices.SortFunc(hs[:opened], func(a, b recipient) int { return cmp.Compare(a.id, b.id) })
	for _, r := range hs[:opened] {
		r.h.(batcher).EndBatch()
	}

	clear(due)
	clear(hs)
	s.mu.Lock()
	s.due, s.hs = due, hs
	s.stats.Delivered += delivered
	s.stats.Dropped += droppedLinks
	s.mu.Unlock()
	return int(delivered)
}

// RunUntilQuiet steps until no packets remain in flight or maxSteps is
// reached, returning the number of steps taken. Handlers typically send
// more packets while handling, so this runs a whole propagation wave to
// quiescence.
func (s *Sim) RunUntilQuiet(maxSteps int) int {
	for i := 0; i < maxSteps; i++ {
		s.mu.Lock()
		pending := len(s.inflight)
		s.mu.Unlock()
		if pending == 0 {
			return i
		}
		s.Step()
	}
	return maxSteps
}

// Rounds returns how many Step calls have run. It is safe to read
// concurrently with stepping; emulation drivers use it as a
// monotonic logical clock for trace sinks (unlike World.Time it also
// advances during Settle drains, where no simulated time passes).
func (s *Sim) Rounds() int64 { return s.rounds.Load() }

// Pending returns the number of packets currently in flight.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Stats returns a snapshot of the traffic counters.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the traffic counters.
func (s *Sim) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// sendLocked queues the copies Faults.Fate lets through. Fate draws
// from the seeded rng under mu in one fixed order, so seeded runs stay
// bit-identical.
func (s *Sim) sendLocked(from, to tuple.NodeID, data []byte) {
	s.stats.Sent++
	s.stats.PayloadBytes += int64(len(data))
	var copies [2]Copy
	n := s.faults.Fate(s.rng, Link{From: from, To: to}, data, 0, &copies)
	if n == 0 {
		s.stats.Dropped++
	}
	for i := range n {
		c := &copies[i]
		if c.Corrupted {
			s.stats.Corrupted++
		}
		s.inflight = append(s.inflight, simPacket{from: from, to: to, data: c.Data, dueRound: c.Delay})
	}
}

// clearPacketTail zeroes the slots of buf past length n so compaction
// does not pin payload slices and id strings in the retained backing
// array: one settle wave's high-water queue would otherwise hold every
// wavefront payload alive for the rest of the run.
func clearPacketTail(buf []simPacket, n int) {
	for i := n; i < len(buf); i++ {
		buf[i] = simPacket{}
	}
}

// SimEndpoint is one node's attachment to a Sim network.
type SimEndpoint struct {
	net *Sim
	id  tuple.NodeID
}

var _ Sender = (*SimEndpoint)(nil)

// Self implements Sender.
func (e *SimEndpoint) Self() tuple.NodeID { return e.id }

// Neighbors implements Sender.
func (e *SimEndpoint) Neighbors() []tuple.NodeID {
	return e.net.graph.Neighbors(e.id)
}

// Broadcast implements Sender, enqueueing one copy per current
// neighbor (the radio's one-hop broadcast). The payload slice is shared,
// not copied: receivers must treat packet data as read-only.
func (e *SimEndpoint) Broadcast(data []byte) error {
	s := e.net
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handlers[e.id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, e.id)
	}
	s.stats.Broadcasts++
	s.nbrs = s.graph.AppendNeighbors(s.nbrs[:0], e.id)
	for _, n := range s.nbrs {
		s.sendLocked(e.id, n, data)
	}
	clear(s.nbrs)
	return nil
}

// Send implements Sender.
func (e *SimEndpoint) Send(to tuple.NodeID, data []byte) error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if _, ok := e.net.handlers[e.id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, e.id)
	}
	if !e.net.graph.HasEdge(e.id, to) {
		return fmt.Errorf("%w: %s -> %s", ErrNotNeighbor, e.id, to)
	}
	e.net.sendLocked(e.id, to, data)
	return nil
}
