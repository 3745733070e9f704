package testnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/pattern"
	"tota/internal/retry"
	"tota/internal/tuple"
)

// ClientFleet is the gateway client workload: GatewayClients fake
// clients per node, each holding one subscription whose event stream it
// folds into a live mirror of the node's tuple space. The mirror is
// the external proof that the gateway's subscribe/replay contract
// works end to end — it must converge on the oracle through crashes,
// loss windows and gateway restarts, with every recovery path (replay
// hit, epoch-change resync, drop-triggered read-back) exercised by the
// run itself rather than a scripted happy path.
type ClientFleet struct {
	m Manifest

	mu      sync.Mutex
	nodes   map[string]*nodeClients
	resyncs int64
}

type nodeClients struct {
	addr    string
	clients []*fleetClient
}

// fleetClient is one fake client: a gateway.Client, one subscription,
// and the mirror it maintains from the event stream.
type fleetClient struct {
	name string
	cli  *gateway.Client
	sub  *gateway.Subscription
	flt  *ClientFleet

	mu     sync.Mutex
	mirror map[string]Entry // tuple id -> canonical entry
	// epoch is the gateway instance of the last event folded into the
	// mirror: the mirror speaks for that instance only.
	epoch     string
	lastDrops uint64
	done      chan struct{}
}

// NewClientFleet builds the (empty) fleet for a manifest; nodes attach
// as they start via StartNode.
func NewClientFleet(m Manifest) *ClientFleet {
	return &ClientFleet{m: m, nodes: make(map[string]*nodeClients)}
}

// StartNode attaches the manifest's per-node client cohort to a node's
// gateway: every client subscribes (match-all over the app kinds), and
// the first ClientInjects clients each inject their flood tuple. Safe
// to call once per node; a node restarting keeps its original cohort
// (the clients reconnect on their own — that is the point).
func (f *ClientFleet) StartNode(nodeID, gwAddr string) error {
	f.mu.Lock()
	if _, ok := f.nodes[nodeID]; ok {
		f.mu.Unlock()
		return nil
	}
	nc := &nodeClients{addr: gwAddr}
	f.nodes[nodeID] = nc
	f.mu.Unlock()

	for k := 0; k < f.m.GatewayClients; k++ {
		c := &fleetClient{
			name: fmt.Sprintf("%s-c%d", nodeID, k),
			flt:  f,
			cli: gateway.Dial(gwAddr, gateway.ClientConfig{
				// Seed per client so retry jitter de-correlates across
				// the cohort but reproduces run to run.
				Policy:         retry.New(f.m.Seed + int64(len(nodeID))*1000 + int64(k)),
				RequestTimeout: 3 * time.Second,
			}),
			mirror: make(map[string]Entry),
			done:   make(chan struct{}),
		}
		sub, err := c.cli.Subscribe(tuple.MatchAll())
		if err != nil {
			_ = c.cli.Close()
			return fmt.Errorf("testnet: client %s subscribe: %w", c.name, err)
		}
		c.sub = sub
		go c.consume()
		if k < f.m.ClientInjects {
			name := ClientFloodName(nodeID, k)
			if _, err := c.cli.Inject(pattern.NewFlood(name, tuple.S("origin", c.name))); err != nil {
				return fmt.Errorf("testnet: client %s inject: %w", c.name, err)
			}
		}
		f.mu.Lock()
		nc.clients = append(nc.clients, c)
		f.mu.Unlock()
	}
	return nil
}

// consume folds the subscription's event stream into the mirror. Three
// recovery paths keep it honest:
//   - normal events upsert/remove by tuple id (duplicates across the
//     replay/live seam are naturally idempotent);
//   - a Resync marker (gateway restarted, or replay missed) throws the
//     mirror away and rebuilds it with a Read RPC;
//   - growth in the gateway's drop accounting means events were shed to
//     the bounded queue, so the mirror also rebuilds via Read — drops
//     are accounted, and the account is acted on, never ignored.
func (c *fleetClient) consume() {
	defer close(c.done)
	for ev := range c.sub.Events {
		if ev.Resync {
			c.flt.countResync()
			// Pre-restart state is unreliable: drop it before rebuilding,
			// so a failed Read (gateway still coming up) leaves an empty
			// mirror that subsequent live arrivals repopulate, never a
			// stale one passing for converged.
			c.mu.Lock()
			c.mirror = make(map[string]Entry)
			c.epoch = ev.Epoch
			c.mu.Unlock()
			c.rebuild()
			continue
		}
		c.mu.Lock()
		c.epoch = ev.Epoch
		if ev.Drops > c.lastDrops {
			c.lastDrops = ev.Drops
			c.mu.Unlock()
			c.rebuild()
			continue
		}
		c.applyLocked(ev)
		c.mu.Unlock()
	}
}

func (c *fleetClient) applyLocked(ev gateway.SubEvent) {
	if ev.Tuple == nil {
		return
	}
	kind := ev.Tuple.Kind()
	if kind != pattern.KindGradient && kind != pattern.KindFlood {
		return // neighbor and message tuples are not store state
	}
	id := ev.Tuple.ID().String()
	switch ev.Type {
	case core.TupleArrived.String():
		c.mirror[id] = canonicalEntry(ev.Tuple)
	case core.TupleRemoved.String():
		delete(c.mirror, id)
	}
}

// rebuild replaces the mirror with a fresh Read of the node's space.
func (c *fleetClient) rebuild() {
	tuples, err := c.cli.Read(tuple.MatchAll())
	if err != nil {
		return // still disconnected; the next resync trigger retries
	}
	fresh := make(map[string]Entry)
	for _, t := range tuples {
		kind := t.Kind()
		if kind != pattern.KindGradient && kind != pattern.KindFlood {
			continue
		}
		fresh[t.ID().String()] = canonicalEntry(t)
	}
	c.mu.Lock()
	c.mirror = fresh
	c.mu.Unlock()
}

// canonicalEntry projects a tuple to the oracle-comparable form, with
// the same rules CanonicalizeStore applies to the NDJSON dump: kind,
// "name" field, and a finite "_val" when present.
func canonicalEntry(t tuple.Tuple) Entry {
	e := Entry{Kind: t.Kind(), Name: t.Content().GetString("name")}
	if m, ok := t.(tuple.Maintained); ok {
		if v := m.Value(); !math.IsInf(v, 0) && !math.IsNaN(v) {
			e.Val = v
			e.HasVal = true
		}
	}
	return e
}

// Snapshot returns the client's current mirror as sorted canonical
// entries, and the gateway epoch it was built from.
func (c *fleetClient) Snapshot() ([]Entry, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.mirror))
	for _, e := range c.mirror {
		out = append(out, e)
	}
	SortEntries(out)
	return out, c.epoch
}

func (f *ClientFleet) countResync() {
	f.mu.Lock()
	f.resyncs++
	f.mu.Unlock()
}

// Resyncs counts replay-miss/epoch-change recoveries clients performed.
func (f *ClientFleet) Resyncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.resyncs)
}

// Subscriptions counts live client subscriptions across the fleet.
func (f *ClientFleet) Subscriptions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, nc := range f.nodes {
		n += len(nc.clients)
	}
	return n
}

// Converged checks every client mirror against its node's oracle
// entry set; the first mismatch is described for the progress log. A
// mirror counts only when it was built from its gateway's current
// epoch: a client that has not yet reconnected after its node
// restarted still holds its pre-crash mirror, which can equal the
// oracle. So each client also pings its gateway, and a client that
// cannot, or whose mirror is from another epoch, is not converged.
func (f *ClientFleet) Converged(oracle map[string][]Entry) (bool, string) {
	f.mu.Lock()
	nodes := make(map[string][]*fleetClient, len(f.nodes))
	for id, nc := range f.nodes {
		nodes[id] = append([]*fleetClient(nil), nc.clients...)
	}
	f.mu.Unlock()
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		want := oracle[id]
		for _, c := range nodes[id] {
			// Ping before the snapshot: a mirror whose epoch matches is
			// then at least as new as the gateway that answered.
			now, _, err := c.cli.Ping()
			if err != nil {
				return false, fmt.Sprintf("client %s is disconnected: %v", c.name, err)
			}
			got, seen := c.Snapshot()
			if seen != now {
				return false, fmt.Sprintf("client %s mirror is from gateway epoch %q, gateway is at %q", c.name, seen, now)
			}
			if !EntriesEqual(got, want) {
				return false, fmt.Sprintf("client %s mirror has %v, want %v", c.name, got, want)
			}
		}
	}
	return true, ""
}

// GapViolations sums unaccounted sequence gaps across all clients —
// non-zero means the gateway broke the drops-cover-gaps contract.
func (f *ClientFleet) GapViolations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, nc := range f.nodes {
		for _, c := range nc.clients {
			n += c.sub.GapViolations()
		}
	}
	return n
}

// Close shuts every client down.
func (f *ClientFleet) Close() {
	f.mu.Lock()
	var all []*fleetClient
	for _, nc := range f.nodes {
		all = append(all, nc.clients...)
	}
	f.mu.Unlock()
	for _, c := range all {
		_ = c.cli.Close()
		<-c.done
	}
}
