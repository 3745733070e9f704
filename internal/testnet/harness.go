package testnet

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"tota/internal/fault"
	"tota/internal/gateway"
	"tota/internal/obs"
	"tota/internal/tuple"
)

// Report is the outcome of one testnet run.
type Report struct {
	// Converged reports whether every node's externally scraped store
	// matched the oracle before the deadline.
	Converged bool
	// ConvergeTick is the harness tick at which the fleet matched.
	ConvergeTick int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// CleanExits counts nodes that honored graceful shutdown (SIGTERM
	// then exit 0) at teardown.
	CleanExits int
	// Restarts counts crash-fault restart cycles performed.
	Restarts int
	// Relay is the packet accounting across all links.
	Relay RelayStats
	// ClientSubs is the number of live gateway client subscriptions at
	// the end of the run (0 when the manifest has no client workload).
	ClientSubs int
	// ClientResyncs counts replay-miss/epoch-change recoveries the
	// client fleet performed — a crash-victim gateway restart shows up
	// here.
	ClientResyncs int
	// ClientGapViolations counts event-sequence gaps NOT covered by the
	// gateway's drop accounting; any non-zero value is a protocol bug.
	ClientGapViolations int
	// GatewayReplayHits/Misses/Drops are the tota_gateway_* counters
	// summed across the fleet's telemetry endpoints at convergence,
	// proving the metrics are scrape-able and the drop accounting is
	// externally visible.
	GatewayReplayHits   float64
	GatewayReplayMisses float64
	GatewayDrops        float64
}

// Harness wires a manifest to real processes: relay, fleet, plan
// driver and convergence polling.
type Harness struct {
	m      Manifest
	bin    string
	out    io.Writer
	relay  *Relay
	client *Client
	plan   fault.Plan

	peerAddrs map[string][]string // node -> incident relay link addrs
	procs     map[string]*Proc
	crashed   map[string]bool
	paused    map[string]bool
	report    Report

	// gatewayAddrs are per-node client RPC addresses on ports reserved
	// up front, so a crash-restarted node comes back at the SAME
	// address and its clients' reconnect loops find it again.
	gatewayAddrs map[string]string
	fleet        *ClientFleet
}

// NodeExtraFlags are the tota-node flags every fleet member runs with:
// a refresh period fast enough to heal within a few harness ticks and a
// flight ring for post-hoc diagnosis.
var NodeExtraFlags = []string{"-refresh", "200ms", "-trace.flight", "256"}

// Run executes the manifest against the tota-node binary at bin,
// writing progress and failure diagnostics to out. It returns the
// report in both outcomes; err is non-nil when the fleet missed the
// deadline or teardown was not clean.
func Run(m Manifest, bin string, out io.Writer) (*Report, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	plan, err := fault.ParsePlan(m.Plan)
	if err != nil {
		return nil, err
	}
	h := &Harness{
		m:       m,
		bin:     bin,
		out:     out,
		relay:   NewRelay(m.Seed),
		client:  NewClient(m.Seed + 1),
		plan:    plan,
		procs:   make(map[string]*Proc),
		crashed: make(map[string]bool),
		paused:  make(map[string]bool),
	}
	defer h.relay.Close()
	defer h.killAll()
	if m.GatewayClients > 0 {
		h.fleet = NewClientFleet(m)
		defer h.fleet.Close()
	}

	start := time.Now()
	err = h.run()
	h.report.Elapsed = time.Since(start)
	h.report.Relay = h.relay.Stats()
	return &h.report, err
}

func (h *Harness) logf(format string, args ...any) {
	if h.out != nil {
		fmt.Fprintf(h.out, format+"\n", args...)
	}
}

func (h *Harness) run() error {
	// Phase 1: bind one relay socket per link; the addresses double as
	// each endpoint's static peer list, so processes can restart on
	// fresh ephemeral ports without anyone re-learning peers.
	h.peerAddrs = make(map[string][]string, len(h.m.Nodes))
	for _, l := range h.m.Links {
		addr, err := h.relay.AddLink(l[0], l[1])
		if err != nil {
			return err
		}
		h.peerAddrs[l[0]] = append(h.peerAddrs[l[0]], addr)
		h.peerAddrs[l[1]] = append(h.peerAddrs[l[1]], addr)
	}
	h.logf("testnet: %d nodes, %d links, plan %q, seed %d", len(h.m.Nodes), len(h.m.Links), h.m.Plan, h.m.Seed)

	// Phase 1.5: with a client workload, reserve one TCP port per node
	// for its gateway. The port is fixed for the node's whole lifetime —
	// including crash restarts — so client reconnect loops need no
	// rediscovery, exactly like a production VIP.
	if h.fleet != nil {
		h.gatewayAddrs = make(map[string]string, len(h.m.Nodes))
		for _, ns := range h.m.Nodes {
			addr, err := reserveLoopbackPort()
			if err != nil {
				return err
			}
			h.gatewayAddrs[ns.ID] = addr
		}
	}

	// Phase 2: staggered cold start — the tick-0 cohort spawns now,
	// late joiners inside the tick loop.
	for _, ns := range h.m.Nodes {
		if ns.StartTick == 0 {
			if err := h.spawn(ns.ID); err != nil {
				return err
			}
		}
	}

	// Phase 3: readiness barrier. Every tick-0 node must report, via
	// /readyz alone, as many peers as it has links into the tick-0
	// cohort — discovery through the relay is complete, so fault
	// windows start from a known-good fleet.
	if err := h.readinessBarrier(); err != nil {
		return err
	}

	// Phase 3.5: attach the gateway client cohorts to every running
	// node (late joiners attach in the tick loop). Client injects land
	// before any fault window opens, like the stdin workload.
	if h.fleet != nil {
		for id, p := range h.procs {
			if err := h.fleet.StartNode(id, p.GatewayAddr); err != nil {
				return err
			}
		}
		h.logf("testnet: client fleet attached (%d subscriptions)", h.fleet.Subscriptions())
	}

	// Phase 4: the tick loop — plan transitions, staggered starts,
	// workload injections, then convergence polling once the last
	// scheduled disturbance is behind us.
	settle := h.plan.MaxTick()
	for _, ns := range h.m.Nodes {
		if ns.StartTick > settle {
			settle = ns.StartTick
		}
	}
	for _, w := range h.m.Workload {
		if w.AtTick > settle {
			settle = w.AtTick
		}
	}
	oracle := h.m.Oracle()
	tickDur := time.Duration(h.m.TickMS) * time.Millisecond
	for tick := 0; tick <= h.m.DeadlineTicks; tick++ {
		h.applyPlanState(tick)
		for _, ns := range h.m.Nodes {
			if ns.StartTick == tick && tick > 0 {
				h.logf("testnet: tick %d: cold start %s", tick, ns.ID)
				if err := h.spawn(ns.ID); err != nil {
					return err
				}
				if h.fleet != nil {
					if err := h.fleet.StartNode(ns.ID, h.procs[ns.ID].GatewayAddr); err != nil {
						return err
					}
				}
			}
		}
		for _, w := range h.m.Workload {
			if w.AtTick != tick {
				continue
			}
			p, ok := h.procs[w.Node]
			if !ok {
				return fmt.Errorf("testnet: tick %d: workload target %s is not running", tick, w.Node)
			}
			h.logf("testnet: tick %d: %s <- %q", tick, w.Node, w.Cmd)
			if err := p.Inject(w.Cmd); err != nil {
				return err
			}
		}
		if tick > settle {
			ok, mismatch := h.converged(oracle)
			if ok && h.fleet != nil {
				// Stores matching is necessary but not sufficient: every
				// client mirror — built purely from the gateway event
				// stream and its recovery paths — must match too.
				ok, mismatch = h.fleet.Converged(oracle)
			}
			if ok {
				h.report.Converged = true
				h.report.ConvergeTick = tick
				h.logf("testnet: tick %d: CONVERGED (stores match oracle on all %d nodes)", tick, len(h.m.Nodes))
				h.finishClientReport()
				return h.teardown()
			}
			h.logf("testnet: tick %d: not converged (%s)", tick, mismatch)
		}
		time.Sleep(tickDur)
	}
	h.dumpDiagnostics(oracle)
	return fmt.Errorf("testnet: fleet did not converge within %d ticks", h.m.DeadlineTicks)
}

func (h *Harness) spawn(id string) error {
	extra := NodeExtraFlags
	if addr, ok := h.gatewayAddrs[id]; ok {
		extra = append(append([]string(nil), extra...), "-gateway.addr", addr)
	}
	p, err := SpawnNode(h.bin, id, h.peerAddrs[id], extra...)
	if err != nil {
		return err
	}
	h.procs[id] = p
	return nil
}

// reserveLoopbackPort binds an ephemeral loopback TCP port, records
// its address and releases it — the standard trick for handing a
// process a port that will still be free moments later.
func reserveLoopbackPort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr, nil
}

// finishClientReport records the fleet's final counters plus the
// tota_gateway_* metrics scraped from every node's telemetry endpoint.
func (h *Harness) finishClientReport() {
	if h.fleet == nil {
		return
	}
	h.report.ClientSubs = h.fleet.Subscriptions()
	h.report.ClientResyncs = h.fleet.Resyncs()
	h.report.ClientGapViolations = h.fleet.GapViolations()
	for _, p := range h.procs {
		body, err := h.client.MetricsJSON(p.ObsURL)
		if err != nil {
			continue
		}
		var snaps []obs.Snapshot
		if err := json.Unmarshal(body, &snaps); err != nil {
			continue
		}
		for _, s := range snaps {
			switch s.Name {
			case obs.MetricName[gateway.Stats]("ReplayHits"):
				h.report.GatewayReplayHits += s.Value
			case obs.MetricName[gateway.Stats]("ReplayMisses"):
				h.report.GatewayReplayMisses += s.Value
			case obs.MetricName[gateway.Stats]("EventsDropped"):
				h.report.GatewayDrops += s.Value
			}
		}
	}
}

func (h *Harness) readinessBarrier() error {
	deg := make(map[string]int)
	startTick := make(map[string]int, len(h.m.Nodes))
	for _, ns := range h.m.Nodes {
		startTick[ns.ID] = ns.StartTick
	}
	for _, l := range h.m.Links {
		if startTick[l[0]] == 0 && startTick[l[1]] == 0 {
			deg[l[0]]++
			deg[l[1]]++
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for id, p := range h.procs {
		for {
			rs, err := h.client.Ready(p.ObsURL)
			if err == nil && rs.Peers >= deg[id] {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("testnet: readiness barrier: %s has %d peers, want %d (last err %v)", id, rs.Peers, deg[id], err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	h.logf("testnet: readiness barrier passed (%d nodes discovered their full degree)", len(h.procs))
	return nil
}

// applyPlanState pushes the plan's state on a tick to the relay and
// turns its crashed and paused sets into process transitions, heals
// first like the emulator's injector.
func (h *Harness) applyPlanState(tick int) {
	st := h.plan.At(tick)
	h.relay.Apply(st.Radio, time.Duration(h.m.TickMS)*time.Millisecond)

	// Crash transitions: restart with the SAME identity (and the same
	// relay peer list) on heal — the restarted process comes back empty
	// on a fresh port and must catch up — and SIGKILL on entry.
	for id := range h.crashed {
		if !slices.Contains(st.Crashed, tuple.NodeID(id)) {
			h.logf("testnet: tick %d: restart %s (same id, empty store)", tick, id)
			if err := h.spawn(id); err != nil {
				h.logf("testnet: restart %s failed: %v", id, err)
			} else {
				h.report.Restarts++
			}
			delete(h.crashed, id)
		}
	}
	for _, id := range st.Crashed {
		id := string(id)
		if !h.crashed[id] {
			if p, ok := h.procs[id]; ok {
				h.logf("testnet: tick %d: SIGKILL %s", tick, id)
				p.Kill()
				delete(h.procs, id)
			}
			h.crashed[id] = true
		}
	}
	// Pause transitions: SIGCONT on heal, SIGSTOP on entry.
	for id := range h.paused {
		if !st.Radio.Paused[tuple.NodeID(id)] {
			if p, ok := h.procs[id]; ok {
				h.logf("testnet: tick %d: SIGCONT %s", tick, id)
				_ = p.Resume()
			}
			delete(h.paused, id)
		}
	}
	for id := range st.Radio.Paused {
		id := string(id)
		if !h.paused[id] {
			if p, ok := h.procs[id]; ok {
				h.logf("testnet: tick %d: SIGSTOP %s", tick, id)
				_ = p.Pause()
			}
			h.paused[id] = true
		}
	}
}

// converged scrapes every node's /store.json and compares the
// canonical entries against the oracle. The first mismatch is
// described for the progress log.
func (h *Harness) converged(oracle map[string][]Entry) (bool, string) {
	for _, ns := range h.m.Nodes {
		p, ok := h.procs[ns.ID]
		if !ok {
			return false, fmt.Sprintf("%s not running", ns.ID)
		}
		got, err := h.client.StoreEntries(p.ObsURL)
		if err != nil {
			return false, fmt.Sprintf("%s: %v", ns.ID, err)
		}
		if !EntriesEqual(got, oracle[ns.ID]) {
			return false, fmt.Sprintf("%s has %v, want %v", ns.ID, got, oracle[ns.ID])
		}
	}
	return true, ""
}

// teardown stops the fleet gracefully and enforces the shutdown
// contract: SIGTERM must produce exit 0 on every node.
func (h *Harness) teardown() error {
	var firstErr error
	for _, ns := range h.m.Nodes {
		p, ok := h.procs[ns.ID]
		if !ok {
			continue
		}
		if err := p.StopGraceful(10 * time.Second); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			h.logf("testnet: %v", err)
			continue
		}
		h.report.CleanExits++
		delete(h.procs, ns.ID)
	}
	return firstErr
}

// killAll is the safety net for early returns: any process still
// tracked is killed outright.
func (h *Harness) killAll() {
	for id, p := range h.procs {
		p.Kill()
		delete(h.procs, id)
	}
}

// dumpDiagnostics writes the per-node post-mortem a deadline failure
// leaves behind: readiness, store-vs-oracle diff and recent stderr,
// all gathered through the same external interfaces the run used.
func (h *Harness) dumpDiagnostics(oracle map[string][]Entry) {
	h.logf("testnet: DEADLINE EXCEEDED — per-node diagnostics:")
	for _, ns := range h.m.Nodes {
		p, ok := h.procs[ns.ID]
		if !ok {
			h.logf("  %s: NOT RUNNING (crashed=%v paused=%v)", ns.ID, h.crashed[ns.ID], h.paused[ns.ID])
			continue
		}
		rs, err := h.client.Ready(p.ObsURL)
		if err != nil {
			h.logf("  %s: /readyz unreachable: %v", ns.ID, err)
		} else {
			h.logf("  %s: ready=%v peers=%d store=%d announced=%d suppressed=%d",
				ns.ID, rs.Ready, rs.Peers, rs.StoreSize, rs.Announced, rs.Suppressed)
		}
		if got, err := h.client.StoreEntries(p.ObsURL); err == nil {
			h.logf("    store: got %v want %v", got, oracle[ns.ID])
		}
		for _, line := range p.StderrTail(8) {
			h.logf("    stderr: %s", line)
		}
	}
	s := h.relay.Stats()
	h.logf("  relay: forwarded=%d dropped=%d corrupted=%d duplicated=%d", s.Forwarded, s.Dropped, s.Corrupted, s.Duplicated)
}
