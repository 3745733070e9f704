// Package core implements the TOTA middleware node: the paper's TOTA
// ENGINE (tuple storage, propagation, structure maintenance), LOCAL
// TUPLES space, EVENT INTERFACE, and the TOTA API (inject, read, delete,
// subscribe, unsubscribe).
//
// A Node sits on top of a transport.Sender (simulated radio or UDP) and
// implements transport.Handler: the transport feeds it packets and
// neighborhood changes, and the node emits one-hop broadcasts to
// propagate tuples. All state mutation is serialized by a single mutex;
// subscription reactions run outside the lock, so they may call back
// into the API.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"

	"tota/internal/space"
	"tota/internal/transport"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// API errors.
var (
	ErrNilTuple  = errors.New("core: nil tuple")
	ErrClosed    = errors.New("core: node closed")
	ErrForeignID = errors.New("core: tuple already has an id")
	ErrDenied    = errors.New("core: operation denied by policy")
)

// Config collects a node's tunables; zero values select defaults.
type Config struct {
	// MaxHops bounds how far any tuple propagates and how large any
	// maintained structure value may grow — the engine-level safety
	// net against pathological propagation rules and count-to-scope
	// divergence in partitioned regions. Defaults to DefaultMaxHops.
	MaxHops int
	// Policy authorizes operations (nil allows everything).
	Policy Policy
	// DisablePoisonedReverse turns off the maintenance parent filter
	// (ablation A1: teardown degenerates to count-to-scope loops).
	DisablePoisonedReverse bool
	// DisableCatchUp turns off unicasting stored tuples to newcomers
	// (ablation A1: joiners rely on later announcements or refresh).
	DisableCatchUp bool
	// Tracer, when set, receives every engine decision (see TraceEvent).
	Tracer Tracer
	// TraceSampleRate is the fraction of locally injected tuples that
	// carry a causal trace context on the wire (see WithTraceSampling).
	// 0 disables sampling: announcements stay byte-identical to the
	// untraced protocol and the hot path does no trace work.
	TraceSampleRate float64
	// Logger, when set, receives rate-limited structured logs for
	// swallowed errors (transport send failures, undecodable packets).
	// Each error class logs at occurrence counts 1, 2, 4, 8, … so a
	// flapping link cannot flood the log.
	Logger *slog.Logger
}

// DefaultMaxHops is the default engine-level propagation bound.
const DefaultMaxHops = 128

// DefaultFrameBytes is the default batch-frame payload budget, chosen
// to fit a typical UDP datagram under an Ethernet MTU; MTU-aware
// transports override it via transport.FrameLimiter.
const DefaultFrameBytes = 1400

// Option customizes a Node.
type Option interface {
	apply(*Config)
}

type optionFunc func(*Config)

func (f optionFunc) apply(c *Config) { f(c) }

// WithMaxHops sets the engine-level propagation bound.
func WithMaxHops(n int) Option {
	return optionFunc(func(c *Config) { c.MaxHops = n })
}

// WithoutPoisonedReverse disables the maintenance parent filter — an
// ablation switch demonstrating why the filter exists (see experiment
// A1); never use it in a deployment.
func WithoutPoisonedReverse() Option {
	return optionFunc(func(c *Config) { c.DisablePoisonedReverse = true })
}

// WithoutCatchUp disables the newcomer catch-up unicast — an ablation
// switch (see experiment A1): joiners then learn existing structures
// only from later value changes or anti-entropy refreshes.
func WithoutCatchUp() Option {
	return optionFunc(func(c *Config) { c.DisableCatchUp = true })
}

// WithLogger installs a structured logger for rate-limited error
// reporting (send failures, undecodable packets).
func WithLogger(l *slog.Logger) Option {
	return optionFunc(func(c *Config) { c.Logger = l })
}

// Node is one TOTA middleware instance.
type Node struct {
	// cfg is the resolved configuration, shared (never copied, never
	// mutated after construction) so a million identically-configured
	// emulated nodes store it once. See NewConfig/NewShared.
	cfg *Config
	tr  transport.Sender
	id  tuple.NodeID
	// localizer is the node's own position source, space.NoLocalizer
	// until SetLocalizer replaces it. It lives outside the shared Config
	// because it is the one per-node piece of configuration: an emulated
	// node's position closure differs node to node.
	localizer space.Localizer

	mu    sync.Mutex
	seq   uint64
	epoch uint64
	now   float64
	// store is the local tuple space, embedded by value: its indexes
	// allocate lazily (see store.go), so an idle node pays nothing.
	store store
	// states is the per-tuple bookkeeping slab (see statetab.go): dense
	// tupleState values behind int32 handles, replacing the old
	// map[tuple.ID]*tupleState and its per-entry allocations.
	states stateTable
	// nbrs is the one-hop neighborhood, kept sorted: neighborhoods are
	// small (a radio's degree), so a sorted slice beats a map on both
	// memory and scan cost, and gives deterministic iteration for free.
	nbrs []tuple.NodeID
	// subs is sorted by subscription id (ids are assigned monotonically,
	// so appends keep the order) and copy-on-write (see subscriptions).
	subs    atomic.Pointer[[]*subscription]
	nextSub SubID
	// effects queues the decisions taken under mu — trace records and
	// events, one record per decision — until unlock delivers them.
	effects []effect
	stats   counters[atomic.Int64]
	// idScratch is the reusable id snapshot buffer for the refresh,
	// sweep, and catch-up loops (all run under mu, never nested).
	idScratch []tuple.ID
	// ctxScratch is the reusable hook context handed out by ctxLocked:
	// at most one engine-created Ctx is ever live (all hook pipelines
	// run sequentially under mu), so per-packet contexts need not
	// allocate. Hooks must not retain the pointer past their call.
	ctxScratch tuple.Ctx
	// frameLimit is the batch-frame payload budget resolved at
	// construction (transport.FrameLimiter, or DefaultFrameBytes).
	frameLimit int
	// stageMsgs accumulates pre-encoded outgoing messages between a
	// staging pass (refresh, catch-up, pull response) and its flush into
	// coalesced frames; reused across flushes.
	stageMsgs [][]byte
	// digestScratch accumulates the refresh epoch's digest entries.
	digestScratch []wire.DigestEntry
	// pullScratch accumulates the tuple ids to pull from one digest's
	// sender.
	pullScratch []tuple.ID
	// decodeScratch is the reusable incoming-message buffer (used under
	// mu): steady-state digest and batch deliveries reuse its slice
	// capacity instead of allocating per packet.
	decodeScratch wire.Message
	// queries is the per-query convergecast state (allocated lazily on
	// the first aggregation query seen; see aggregate.go).
	queries map[tuple.ID]*queryState
	// aggScratch accumulates the refresh epoch's stored query ids.
	aggScratch []tuple.ID
}

var _ transport.Handler = (*Node)(nil)

// New creates a middleware node on top of the given transport endpoint.
// The caller must subsequently route the transport's packets and
// neighbor events into the node (it implements transport.Handler).
func New(tr transport.Sender, opts ...Option) *Node {
	return NewShared(tr, NewConfig(opts...))
}

// NewConfig resolves opts into a complete Config with every default
// applied. The result is what New builds internally; it exists so that
// emulations creating many identically-configured nodes can resolve
// the options once and share the frozen Config across nodes via
// NewShared (at 100k+ nodes the per-node Config copy is measurable).
func NewConfig(opts ...Option) *Config {
	cfg := &Config{MaxHops: DefaultMaxHops}
	for _, o := range opts {
		o.apply(cfg)
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = DefaultMaxHops
	}
	return cfg
}

// NewShared creates a node borrowing an already-resolved configuration
// (see NewConfig). The node keeps the pointer: the caller must not
// mutate cfg afterwards. Nodes of one emulation all share one Config
// this way instead of carrying a private copy each.
func NewShared(tr transport.Sender, cfg *Config) *Node {
	frameLimit := 0
	if fl, ok := tr.(transport.FrameLimiter); ok {
		frameLimit = fl.FramePayloadLimit()
	}
	if frameLimit <= 0 {
		frameLimit = DefaultFrameBytes
	}
	n := &Node{
		cfg:        cfg,
		tr:         tr,
		id:         tr.Self(),
		localizer:  space.NoLocalizer{},
		frameLimit: frameLimit,
	}
	for _, nb := range tr.Neighbors() {
		n.addNbrLocked(nb)
	}
	return n
}

// linkedLocked reports whether peer is currently a one-hop neighbor.
func (n *Node) linkedLocked(peer tuple.NodeID) bool {
	_, ok := n.nbrIdxLocked(peer)
	return ok
}

func (n *Node) nbrIdxLocked(peer tuple.NodeID) (int, bool) {
	lo, hi := 0, len(n.nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.nbrs[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.nbrs) && n.nbrs[lo] == peer
}

// addNbrLocked inserts peer into the sorted neighborhood, reporting
// whether it was new.
func (n *Node) addNbrLocked(peer tuple.NodeID) bool {
	i, ok := n.nbrIdxLocked(peer)
	if ok {
		return false
	}
	n.nbrs = append(n.nbrs, "")
	copy(n.nbrs[i+1:], n.nbrs[i:])
	n.nbrs[i] = peer
	return true
}

// removeNbrLocked deletes peer from the neighborhood, reporting whether
// it was present.
func (n *Node) removeNbrLocked(peer tuple.NodeID) bool {
	i, ok := n.nbrIdxLocked(peer)
	if !ok {
		return false
	}
	n.nbrs = append(n.nbrs[:i], n.nbrs[i+1:]...)
	return true
}

// Self returns the node's identity.
func (n *Node) Self() tuple.NodeID { return n.id }

// Position returns the node's physical position, if a localization
// device is present.
func (n *Node) Position() (space.Point, bool) {
	return n.localizer.Position()
}

// SetLocalizer replaces the node's position source, the one way to give
// a node a position (a node starts without one); nil removes it. Call
// it right after construction, before the node handles any traffic.
func (n *Node) SetLocalizer(l space.Localizer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l == nil {
		l = space.NoLocalizer{}
	}
	n.localizer = l
}

// Neighbors returns the node's view of its one-hop neighborhood.
func (n *Node) Neighbors() []tuple.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]tuple.NodeID, len(n.nbrs))
	copy(out, n.nbrs)
	return out
}

// Inject puts a freshly created tuple into the TOTA network: the node
// assigns it a network-wide id and lets it propagate according to its
// propagation rule. It returns the assigned id.
func (n *Node) Inject(t tuple.Tuple) (tuple.ID, error) {
	if t == nil {
		return tuple.ID{}, ErrNilTuple
	}
	if !t.ID().IsZero() {
		return tuple.ID{}, fmt.Errorf("%w: %s", ErrForeignID, t.ID())
	}
	if err := t.Content().Validate(); err != nil {
		return tuple.ID{}, fmt.Errorf("core: inject: %w", err)
	}
	n.mu.Lock()
	if !n.allow(OpInject, n.id, t) {
		n.unlock()
		return tuple.ID{}, ErrDenied
	}
	n.seq++
	id := tuple.ID{Node: n.id, Seq: n.seq}
	t.SetID(id)
	n.stats.Injected.Add(1)
	ctx := n.ctxLocked(n.id, 0)
	if inj, ok := t.(tuple.Injectable); ok {
		if t2 := inj.OnInject(ctx); t2 != nil {
			t2.SetID(id)
			t = t2
		}
	}
	n.injectLocked(t, ctx)
	n.states.park(t, &n.store)
	n.unlock()
	return id, nil
}

// Read returns copies of the locally stored tuples matching the
// template, in arrival order. It is the paper's read primitive: purely
// local, non-blocking.
func (n *Node) Read(tpl tuple.Template) []tuple.Tuple {
	n.mu.Lock()
	defer n.unlock()
	return n.readLocked(tpl)
}

func (n *Node) readLocked(tpl tuple.Template) []tuple.Tuple {
	ts := n.store.read(tpl)
	if n.cfg.Policy == nil {
		return ts
	}
	var out []tuple.Tuple
	for _, t := range ts {
		if n.allow(OpRead, n.id, t) {
			out = append(out, t)
		}
	}
	return out
}

// ReadOne returns the first locally stored tuple matching the template.
func (n *Node) ReadOne(tpl tuple.Template) (tuple.Tuple, bool) {
	n.mu.Lock()
	defer n.unlock()
	if n.cfg.Policy == nil {
		return n.store.readOne(tpl)
	}
	ts := n.readLocked(tpl)
	if len(ts) == 0 {
		return nil, false
	}
	return ts[0], true
}

// Delete extracts the locally stored tuples matching the template and
// returns them. Deleting a locally held maintained structure notifies
// the neighborhood (withdrawal) so the structure repairs or collapses
// around the hole.
func (n *Node) Delete(tpl tuple.Template) []tuple.Tuple {
	n.mu.Lock()
	out := n.deleteLocked(tpl)
	n.unlock()
	return out
}

// Retract tears down a distributed structure network-wide, the
// distributed deletion the paper implements via deleting propagation.
// Typically invoked at the structure's source. The zero id names no
// tuple and is ignored.
func (n *Node) Retract(id tuple.ID) {
	if id.IsZero() {
		return
	}
	n.mu.Lock()
	local, _, _ := n.store.get(id) // a parked copy has no row
	if !n.allow(OpRetract, n.id, local) {
		n.unlock()
		return
	}
	n.retractLocked(id)
	n.unlock()
}

// Subscribe registers a reaction for events matching the template:
// tuple arrivals/removals whose tuple matches, and neighborhood changes
// when the template matches the synthesized NeighborTupleKind tuples.
func (n *Node) Subscribe(tpl tuple.Template, fn Reaction) SubID {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextSub++
	subs := append(slices.Clip(n.subscriptions()), &subscription{id: n.nextSub, tpl: tpl, fn: fn})
	n.subs.Store(&subs)
	return n.nextSub
}

// Unsubscribe removes a subscription. Unknown ids are ignored.
func (n *Node) Unsubscribe(id SubID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.subscriptions()
	for i, sub := range old {
		if sub.id == id {
			subs := append(old[:i:i], old[i+1:]...)
			n.subs.Store(&subs)
			return
		}
	}
}

// Refresh runs one anti-entropy epoch over every stored propagating
// tuple. Event-driven maintenance alone converges only when packets
// arrive; on lossy radios a periodic Refresh (the emulator's
// RefreshEvery, or any timer) re-seeds lost state so structures still
// converge. Tuples whose announcement changed since their last full
// broadcast are re-sent in full; unchanged tuples are advertised by a
// compact digest, and neighbors pull full bytes only for entries they
// are missing — so steady-state refresh traffic is a handful of
// coalesced frames per node instead of one packet per tuple. It
// returns the number of tuples covered (announced or digested).
func (n *Node) Refresh() int {
	n.mu.Lock()
	count := n.refreshLocked()
	n.unlock()
	return count
}

// SweepExpired advances the node's logical clock to now and removes
// every stored copy whose lease (tuple.Expiring) has elapsed, returning
// the number removed. Drive it from whatever clock the deployment has —
// the emulator calls it once per tick with simulated time.
func (n *Node) SweepExpired(now float64) int {
	n.mu.Lock()
	removed := n.sweepExpiredLocked(now)
	n.unlock()
	return removed
}

// StoreSize returns the number of locally stored tuples (for the memory
// experiments).
func (n *Node) StoreSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.size()
}

// Stats returns a snapshot of the node's counters. It takes no lock:
// the counters are atomics, so telemetry may call it at any time — even
// while a parallel emulation step is mutating other nodes. The snapshot
// is not a consistent cut, which is fine for monotone counters.
func (n *Node) Stats() Stats {
	var s Stats
	out := s.fields()
	for i, c := range n.stats.fields() {
		*out[i] = c.Load()
	}
	return s
}
