// Package testnet is a real-process robustness harness for the TOTA
// middleware: it spawns N genuine tota-node processes on loopback UDP,
// routes every packet through a per-link relay that applies a scripted
// fault plan at the real socket layer, injects process-level faults
// (SIGKILL + restart with the same identity, SIGSTOP/SIGCONT stalls,
// staggered cold starts), and asserts convergence strictly FROM THE
// OUTSIDE by scraping each node's observability endpoints until the
// fleet's tuple stores match a topology-derived oracle.
//
// Everything is driven by a Manifest — topology, fault plan, workload —
// generated from a single seed, cometbft-style: random but exactly
// reproducible, so a failing network condition is a seed number, not a
// flake.
package testnet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"tota/internal/fault"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// NodeSpec describes one process in the fleet.
type NodeSpec struct {
	ID string `json:"id"`
	// StartTick delays the process launch (staggered cold start): the
	// node spawns at this harness tick, 0 meaning before tick zero.
	StartTick int `json:"start_tick"`
}

// WorkloadStep is one shell command written to a node's stdin at a
// scheduled tick — the external stimulus (gradient/flood injections)
// whose outcome the oracle predicts.
type WorkloadStep struct {
	Node   string `json:"node"`
	AtTick int    `json:"at_tick"`
	Cmd    string `json:"cmd"`
}

// Manifest is the complete, serializable description of one testnet
// run: topology × fault plan × workload, plus the clock that maps the
// fault plan's tick numbers onto wall time.
type Manifest struct {
	// Seed parameterizes every random draw: topology generation,
	// relay fault lotteries, poll-client backoff jitter.
	Seed int64 `json:"seed"`
	// Nodes are the fleet members.
	Nodes []NodeSpec `json:"nodes"`
	// Links are undirected edges; each becomes one relay socket.
	Links [][2]string `json:"links"`
	// Plan is a fault.ParsePlan spec (loss/linkloss/delay/linkdelay/
	// corrupt/partition/crash/pause/dup windows in harness ticks).
	Plan string `json:"plan"`
	// TickMS is the wall-clock duration of one harness tick.
	TickMS int `json:"tick_ms"`
	// DeadlineTicks bounds the whole run: if the fleet has not
	// converged on the oracle by then, the run fails with diagnostics.
	DeadlineTicks int `json:"deadline_ticks"`
	// Workload are the scheduled stdin injections.
	Workload []WorkloadStep `json:"workload"`
	// GatewayClients attaches N fake gateway clients to every node's
	// client RPC endpoint (0 disables the client workload entirely).
	// Each client subscribes to the tuple space and mirrors it from the
	// event stream; the harness then verifies every mirror against the
	// oracle, not just the node stores.
	GatewayClients int `json:"gateway_clients,omitempty"`
	// ClientInjects is how many of each node's clients additionally
	// inject one flood tuple (named cw-<node>-<k>) through the gateway,
	// so client-originated state must also reach the whole fleet. Must
	// not exceed GatewayClients.
	ClientInjects int `json:"client_injects,omitempty"`
}

// Generate derives a reproducible manifest from a seed: a connected
// ring-plus-chords topology over n nodes, a crash + heavy-loss fault
// plan against a non-source victim, and a gradient + flood workload.
// The same (seed, n) always yields the identical manifest.
func Generate(seed int64, n int) Manifest {
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(seed))
	m := Manifest{
		Seed:          seed,
		TickMS:        250,
		DeadlineTicks: 140,
	}
	for i := 0; i < n; i++ {
		m.Nodes = append(m.Nodes, NodeSpec{ID: fmt.Sprintf("n%02d", i)})
	}
	// One late joiner (when the fleet is big enough): it must catch up
	// on state injected before it existed.
	if n >= 4 {
		m.Nodes[n-1].StartTick = 4 + rng.Intn(3)
	}
	// Ring keeps the graph connected under any chord draw.
	for i := 0; i < n; i++ {
		m.Links = append(m.Links, [2]string{m.Nodes[i].ID, m.Nodes[(i+1)%n].ID})
	}
	// A few chords so loss has alternate routes to defeat.
	for c := 0; c < n/3; c++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j || j == (i+1)%n || i == (j+1)%n {
			continue
		}
		a, b := m.Nodes[i].ID, m.Nodes[j].ID
		if hasLink(m.Links, a, b) {
			continue
		}
		m.Links = append(m.Links, [2]string{a, b})
	}
	// Workload and victim draws come from the tick-0 cohort: the late
	// joiner can neither run a command nor be SIGKILLed before it
	// exists.
	var early []string
	for _, ns := range m.Nodes[1:] {
		if ns.StartTick == 0 {
			early = append(early, ns.ID)
		}
	}
	src := m.Nodes[0].ID
	flooder := early[rng.Intn(len(early))]
	m.Workload = []WorkloadStep{
		{Node: src, AtTick: 1, Cmd: "gradient field"},
		{Node: flooder, AtTick: 2, Cmd: "flood notice testnet-payload"},
	}
	// Faults: ≥30% loss across every relay while a non-source,
	// always-present victim is SIGKILLed and later restarted with the
	// same identity and an empty store.
	victim := early[rng.Intn(len(early))]
	if victim == flooder && len(early) > 1 {
		for _, id := range early {
			if id != flooder {
				victim = id
				break
			}
		}
	}
	m.Plan = fmt.Sprintf("loss@3-12:%0.2f;crash@4-10:%s", 0.30+rng.Float64()*0.15, victim)
	return m
}

// GenerateGateway is Generate plus a gateway client workload: every
// node serves its gateway to `clients` fake clients, of which
// `injectors` push one flood tuple each through the RPC surface. The
// crash victim doubles as the gateway-restart case: its clients must
// survive the SIGKILL, reconnect to the restarted instance and recover
// their mirrors via seq-based replay/resync.
func GenerateGateway(seed int64, n, clients, injectors int) Manifest {
	m := Generate(seed, n)
	if clients < 1 {
		clients = 1
	}
	if injectors > clients {
		injectors = clients
	}
	m.GatewayClients = clients
	m.ClientInjects = injectors
	// Client mirrors converge through the same anti-entropy the stores
	// do, but only after the event stream settles; give the fleet more
	// headroom than the store-only run.
	m.DeadlineTicks += 40
	return m
}

func hasLink(links [][2]string, a, b string) bool {
	for _, l := range links {
		if (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a) {
			return true
		}
	}
	return false
}

// Validate checks the manifest for internal consistency: unique known
// node IDs everywhere, no self-links, a parseable fault plan whose
// targets exist, and a connected topology (a disconnected fleet can
// never converge on a shared oracle).
func (m Manifest) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("testnet: manifest has no nodes")
	}
	if m.TickMS <= 0 {
		return fmt.Errorf("testnet: tick_ms must be positive")
	}
	if m.DeadlineTicks <= 0 {
		return fmt.Errorf("testnet: deadline_ticks must be positive")
	}
	known := make(map[string]bool, len(m.Nodes))
	for _, ns := range m.Nodes {
		if ns.ID == "" {
			return fmt.Errorf("testnet: empty node id")
		}
		if known[ns.ID] {
			return fmt.Errorf("testnet: duplicate node id %q", ns.ID)
		}
		if ns.StartTick < 0 {
			return fmt.Errorf("testnet: node %s: negative start tick", ns.ID)
		}
		known[ns.ID] = true
	}
	for _, l := range m.Links {
		if l[0] == l[1] {
			return fmt.Errorf("testnet: self-link on %q", l[0])
		}
		if !known[l[0]] || !known[l[1]] {
			return fmt.Errorf("testnet: link %s-%s references unknown node", l[0], l[1])
		}
	}
	if !m.graph().Connected() {
		return fmt.Errorf("testnet: topology is not connected")
	}
	plan, err := fault.ParsePlan(m.Plan)
	if err != nil {
		return err
	}
	for _, ev := range plan.Events {
		for _, id := range ev.Nodes {
			if !known[string(id)] {
				return fmt.Errorf("testnet: plan event %s targets unknown node %q", ev.Kind, id)
			}
		}
		if ev.Kind == fault.Crash || ev.Kind == fault.Pause {
			if ev.Until == 0 {
				return fmt.Errorf("testnet: plan event %s never heals (missing until tick)", ev.Kind)
			}
			for _, id := range ev.Nodes {
				for _, ns := range m.Nodes {
					if ns.ID == string(id) && ns.StartTick >= ev.From {
						return fmt.Errorf("testnet: %s victim %s not yet started at tick %d", ev.Kind, id, ev.From)
					}
				}
			}
		}
	}
	if m.GatewayClients < 0 || m.ClientInjects < 0 {
		return fmt.Errorf("testnet: negative gateway client counts")
	}
	if m.ClientInjects > 0 && m.GatewayClients == 0 {
		return fmt.Errorf("testnet: client_injects without gateway_clients")
	}
	if m.ClientInjects > m.GatewayClients {
		return fmt.Errorf("testnet: client_injects %d exceeds gateway_clients %d", m.ClientInjects, m.GatewayClients)
	}
	for _, w := range m.Workload {
		if !known[w.Node] {
			return fmt.Errorf("testnet: workload step targets unknown node %q", w.Node)
		}
		if w.Cmd == "" {
			return fmt.Errorf("testnet: workload step on %s has empty command", w.Node)
		}
		for _, ns := range m.Nodes {
			if ns.ID == w.Node && w.AtTick < ns.StartTick {
				return fmt.Errorf("testnet: workload at tick %d precedes %s's start tick %d", w.AtTick, w.Node, ns.StartTick)
			}
		}
	}
	return nil
}

// graph builds the manifest's topology: every node, every link.
func (m Manifest) graph() *topology.Graph {
	g := topology.New()
	for _, ns := range m.Nodes {
		g.AddNode(tuple.NodeID(ns.ID))
	}
	for _, l := range m.Links {
		g.AddEdge(tuple.NodeID(l[0]), tuple.NodeID(l[1]))
	}
	return g
}

// MarshalJSON/UnmarshalJSON round-trip through the plain struct; the
// helpers below give the CLI a stable pretty form.

// EncodeJSON renders the manifest as indented JSON.
func (m Manifest) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// DecodeManifest parses a manifest previously produced by EncodeJSON
// (or written by hand) and validates it.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("testnet: bad manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Entry is one canonical store item: the comparable projection of a
// tuple that the oracle predicts and the store dump is reduced to.
// Kind and Name identify the tuple; Val carries the maintained value
// (gradient hop distance) when HasVal is set.
type Entry struct {
	Kind string
	Name string
	Val  float64
	// HasVal distinguishes "no _val field" from Val == 0.
	HasVal bool
}

// String renders the canonical form used in diagnostics and sorting.
func (e Entry) String() string {
	if e.HasVal {
		return fmt.Sprintf("%s/%s=%g", e.Kind, e.Name, e.Val)
	}
	return fmt.Sprintf("%s/%s", e.Kind, e.Name)
}

// Oracle computes the expected steady-state store of every node from
// the manifest alone: for each workload gradient, every node holds one
// gradient tuple whose value is its BFS hop distance from the source
// (TOTA's maintained field invariant); for each flood, every node
// holds one copy. Faults never change the answer — that is the point:
// after every window heals, anti-entropy must restore exactly this.
func (m Manifest) Oracle() map[string][]Entry {
	g := m.graph()
	want := make(map[string][]Entry, len(m.Nodes))
	for _, w := range m.Workload {
		name, kind, ok := parseWorkloadPattern(w.Cmd)
		if !ok {
			continue
		}
		switch kind {
		case pattern.KindGradient:
			for node, hops := range g.BFSDistances(tuple.NodeID(w.Node)) {
				want[string(node)] = append(want[string(node)], Entry{Kind: kind, Name: name, Val: float64(hops), HasVal: true})
			}
		case pattern.KindFlood:
			for _, ns := range m.Nodes {
				want[ns.ID] = append(want[ns.ID], Entry{Kind: kind, Name: name})
			}
		}
	}
	// Client-originated floods: injector client k of node g pushes
	// cw-<g>-<k> through the gateway; it floods like any other tuple,
	// so every node (and every client mirror) must end up holding it.
	for _, src := range m.Nodes {
		for k := 0; k < m.ClientInjects; k++ {
			name := ClientFloodName(src.ID, k)
			for _, ns := range m.Nodes {
				want[ns.ID] = append(want[ns.ID], Entry{Kind: pattern.KindFlood, Name: name})
			}
		}
	}
	for node := range want {
		SortEntries(want[node])
	}
	return want
}

// ClientFloodName is the deterministic name of the flood tuple the
// k-th injector client of a node pushes through the gateway.
func ClientFloodName(node string, k int) string {
	return fmt.Sprintf("cw-%s-%d", node, k)
}

// parseWorkloadPattern maps a shell workload command to the (name,
// kind) it creates; commands without a store-level effect (reads,
// stats) return ok = false.
func parseWorkloadPattern(cmd string) (name, kind string, ok bool) {
	var verb string
	if _, err := fmt.Sscanf(cmd, "%s %s", &verb, &name); err != nil {
		return "", "", false
	}
	switch verb {
	case "gradient":
		return name, pattern.KindGradient, true
	case "flood":
		return name, pattern.KindFlood, true
	}
	return "", "", false
}

// SortEntries orders entries canonically for set comparison.
func SortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].String() < es[j].String() })
}

// EntriesEqual reports whether two canonically sorted entry sets match
// exactly.
func EntriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Degree returns each node's link count — the readiness barrier's
// per-node peer target.
func (m Manifest) Degree() map[string]int {
	deg := make(map[string]int, len(m.Nodes))
	for _, l := range m.Links {
		deg[l[0]]++
		deg[l[1]]++
	}
	return deg
}

// NodeIDs returns the fleet's IDs in manifest order.
func (m Manifest) NodeIDs() []tuple.NodeID {
	ids := make([]tuple.NodeID, 0, len(m.Nodes))
	for _, ns := range m.Nodes {
		ids = append(ids, tuple.NodeID(ns.ID))
	}
	return ids
}
