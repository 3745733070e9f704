// Package fault is a deterministic, scripted fault-injection subsystem
// for the TOTA emulator: it composes timed fault windows — loss bursts,
// asymmetric per-link degradation, network partitions, frame
// corruption, node crash/restart cycles, and pause/resume stalls — and
// drives them against a running emulator.World on its step clock.
//
// A plan means one thing everywhere: Plan.At(tick) is the fault state
// on a tick, and each substrate (the emulator's Injector here, the
// real-process testnet relay) applies that state whole. A window is
// open on ticks [From, Until), or from From onwards when Until <= From.
// Open windows combine by taking the maximum probability or latency of
// each kind and the union of the cut, crashed and paused sets.
//
// Determinism: the injector itself draws no randomness. Every window is
// scheduled by tick number, and all probabilistic effects (which packet
// is lost, which bytes flip, how much jitter a packet gets) draw from
// the simulated radio's seeded RNG in its deterministic merge order, so
// a seeded emulation with a fault plan is bit-identical across runs.
package fault

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tota/internal/emulator"
	"tota/internal/space"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Loss sets the global per-packet drop probability to P while open,
	// replacing the world's baseline loss.
	Loss Kind = iota
	// Dup sets the global duplication probability to P.
	Dup
	// LinkLoss sets the drop probability of the directional link
	// Nodes[0] -> Nodes[1] to P.
	LinkLoss
	// Delay sets the global radio latency to Rounds.
	Delay
	// LinkDelay sets the latency of Nodes[0] -> Nodes[1] to Rounds
	// plus up to Jitter extra seeded-random rounds per packet.
	LinkDelay
	// Corrupt sets the probability of injected byte flips to P; the
	// flips travel through the real wire decoder at the receiver.
	Corrupt
	// Partition cuts Nodes off from the rest of the network with no
	// neighbor events (silent cut).
	Partition
	// Crash removes Nodes when its window opens (links drop, middleware
	// state is lost) and restarts them when it closes: same IDs, same
	// positions, empty state — the rejoin path the paper's newcomer
	// catch-up and anti-entropy must handle.
	Crash
	// Pause suspends Nodes' processing (no refresh, no delivery, no
	// expiry) while keeping their links — a GC stall or sleep state.
	Pause
)

var kindNames = map[Kind]string{
	Loss:      "loss",
	Dup:       "dup",
	LinkLoss:  "linkloss",
	Delay:     "delay",
	LinkDelay: "linkdelay",
	Corrupt:   "corrupt",
	Partition: "partition",
	Crash:     "crash",
	Pause:     "pause",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown-fault"
}

// Event is one scripted fault window: the fault is open on ticks
// [From, Until), or from From onwards when Until <= From.
type Event struct {
	Kind Kind
	// From and Until bound the window in emulator ticks.
	From, Until int
	// Nodes are the fault's targets: the partitioned set, the
	// crashed/paused nodes, or the (from, to) pair of a link fault.
	Nodes []tuple.NodeID
	// P is the probability parameter of Loss/Dup/LinkLoss/Corrupt.
	P float64
	// Rounds and Jitter parameterize Delay/LinkDelay.
	Rounds, Jitter int
}

// Plan is a composable fault script. Windows may overlap freely: At
// combines every open window into one state.
type Plan struct {
	Events []Event
}

// State is the fault state a plan prescribes on one tick.
type State struct {
	// Radio is the packet-level state: probabilities, latencies, the
	// cut and the paused set.
	Radio transport.Faults
	// LossOpen reports whether a loss window is open. When none is, a
	// substrate keeps its baseline loss instead of Radio.Loss.
	LossOpen bool
	// Crashed lists the nodes inside an open crash window, in plan
	// order.
	Crashed []tuple.NodeID
}

// At returns the fault state on a tick. It is the only code that
// decides whether a window is open.
func (p Plan) At(tick int) State {
	var st State
	f := &st.Radio
	for _, e := range p.Events {
		if tick < e.From || (e.Until > e.From && tick >= e.Until) {
			continue
		}
		switch e.Kind {
		case Loss:
			f.Loss = max(f.Loss, e.P)
			st.LossOpen = true
		case Dup:
			f.Dup = max(f.Dup, e.P)
		case Corrupt:
			f.Corrupt = max(f.Corrupt, e.P)
		case Delay:
			f.Delay = max(f.Delay, e.Rounds)
		case LinkLoss:
			if len(e.Nodes) == 2 {
				l := transport.Link{From: e.Nodes[0], To: e.Nodes[1]}
				if f.LinkLoss == nil {
					f.LinkLoss = make(map[transport.Link]float64)
				}
				if cur, ok := f.LinkLoss[l]; !ok || e.P > cur {
					f.LinkLoss[l] = e.P
				}
			}
		case LinkDelay:
			if len(e.Nodes) == 2 {
				l := transport.Link{From: e.Nodes[0], To: e.Nodes[1]}
				if f.LinkDelay == nil {
					f.LinkDelay = make(map[transport.Link]transport.LinkDelay)
				}
				if cur, ok := f.LinkDelay[l]; !ok || e.Rounds > cur.Rounds {
					f.LinkDelay[l] = transport.LinkDelay{Rounds: e.Rounds, Jitter: e.Jitter}
				}
			}
		case Partition:
			f.Cut = addAll(f.Cut, e.Nodes)
		case Pause:
			f.Paused = addAll(f.Paused, e.Nodes)
		case Crash:
			for _, id := range e.Nodes {
				if !slices.Contains(st.Crashed, id) {
					st.Crashed = append(st.Crashed, id)
				}
			}
		}
	}
	return st
}

func addAll(set map[tuple.NodeID]bool, ids []tuple.NodeID) map[tuple.NodeID]bool {
	if set == nil {
		set = make(map[tuple.NodeID]bool, len(ids))
	}
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// MaxTick returns the last tick at which the plan still transitions
// state — a lower bound for how long a scenario must run to see every
// fault heal.
func (p Plan) MaxTick() int {
	max := 0
	for _, e := range p.Events {
		if e.From > max {
			max = e.From
		}
		if e.Until > max {
			max = e.Until
		}
	}
	return max
}

// crashState remembers what a crashed node needs to rejoin: its
// position and (for worlds without a radio range, where links are
// scripted) its edge set.
type crashState struct {
	pos   space.Point
	hasP  bool
	edges []tuple.NodeID
}

// Injector drives a Plan against a World. Create it with New — it
// registers itself as the world's fault hook — and step the world
// normally; each tick applies the plan's state on that tick.
type Injector struct {
	w       *emulator.World
	plan    Plan
	crashed map[tuple.NodeID]crashState
	// down is the Crashed list of the last applied state.
	down []tuple.NodeID
}

// New builds an injector for the plan and installs it as w's fault
// hook. The plan's events may be in any order.
func New(w *emulator.World, plan Plan) *Injector {
	in := &Injector{
		w:       w,
		plan:    plan,
		crashed: make(map[tuple.NodeID]crashState),
	}
	w.SetFaultHook(in.Apply)
	return in
}

// Apply applies the plan's state on a tick: the radio state first,
// then restarts, then crashes, each in plan order. When no loss window
// is open the world's baseline loss holds. Called by World.Tick.
func (in *Injector) Apply(tick int) {
	st := in.plan.At(tick)
	if !st.LossOpen {
		st.Radio.Loss = in.w.Config().Loss
	}
	in.w.Sim().SetFaults(st.Radio)
	for _, id := range in.down {
		if !slices.Contains(st.Crashed, id) {
			in.restart(id)
		}
	}
	for _, id := range st.Crashed {
		if !slices.Contains(in.down, id) {
			in.crash(id)
		}
	}
	in.down = st.Crashed
}

// crash removes a node, recording what its restart needs.
func (in *Injector) crash(id tuple.NodeID) {
	if in.w.Node(id) == nil {
		return
	}
	g := in.w.Graph()
	pos, hasP := g.Position(id)
	cs := crashState{pos: pos, hasP: hasP}
	if in.w.Config().RadioRange <= 0 {
		// Scripted-topology world: links will not regrow from
		// positions, so remember them for the rejoin.
		cs.edges = append(cs.edges, g.Neighbors(id)...)
	}
	in.crashed[id] = cs
	in.w.RemoveNode(id)
}

// restart rejoins a crashed node under its old ID with empty state:
// fresh middleware, old position, and (in scripted-topology worlds)
// its old links, which fire the newcomer catch-up path.
func (in *Injector) restart(id tuple.NodeID) {
	cs, ok := in.crashed[id]
	if !ok {
		return
	}
	delete(in.crashed, id)
	in.w.AddNode(id, cs.pos)
	for _, nbr := range cs.edges {
		if in.w.Node(nbr) != nil {
			in.w.AddEdge(id, nbr)
		}
	}
}

// ParsePlan builds a Plan from a compact spec string, the tota-emu
// -fault flag format: semicolon-separated events, each
//
//	kind@from-until:args
//
// where from-until is the tick window (until omitted = never heals;
// a window from 0 is open from the start)
// and args depend on the kind:
//
//	loss@10-30:0.4           global loss 40% during ticks [10,30)
//	dup@5-15:0.2             global duplication 20%
//	corrupt@15-25:0.05       5% of packets get byte flips
//	delay@10-20:3            global latency 3 rounds
//	partition@20-40:n0,n1    cut {n0,n1} off, heal at 40
//	crash@50-70:n5           crash n5 at 50, restart at 70
//	pause@5-9:n3,n4          stall n3 and n4
//	linkloss@10-20:a,b,0.9   a->b loses 90% (asymmetric)
//	linkdelay@10-20:a,b,3,2  a->b takes 3..5 rounds
func ParsePlan(spec string) (Plan, error) {
	var plan Plan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return Plan{}, err
		}
		plan.Events = append(plan.Events, ev)
	}
	sort.SliceStable(plan.Events, func(i, j int) bool {
		return plan.Events[i].From < plan.Events[j].From
	})
	return plan, nil
}

func parseEvent(s string) (Event, error) {
	head, args, ok := strings.Cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q: missing ':' args", s)
	}
	kindStr, window, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q: missing '@' window", s)
	}
	var ev Event
	found := false
	for k, name := range kindNames {
		if name == kindStr {
			ev.Kind = k
			found = true
			break
		}
	}
	if !found {
		return Event{}, fmt.Errorf("fault: event %q: unknown kind %q", s, kindStr)
	}
	fromStr, untilStr, hasUntil := strings.Cut(window, "-")
	from, err := strconv.Atoi(fromStr)
	if err != nil || from < 0 {
		return Event{}, fmt.Errorf("fault: event %q: bad from tick %q", s, fromStr)
	}
	ev.From = from
	if hasUntil {
		until, err := strconv.Atoi(untilStr)
		if err != nil || until <= from {
			return Event{}, fmt.Errorf("fault: event %q: bad until tick %q", s, untilStr)
		}
		ev.Until = until
	}
	fields := strings.Split(args, ",")
	switch ev.Kind {
	case Loss, Dup, Corrupt:
		if len(fields) != 1 {
			return Event{}, fmt.Errorf("fault: event %q: want one probability", s)
		}
		if ev.P, err = parseProb(fields[0]); err != nil {
			return Event{}, fmt.Errorf("fault: event %q: %w", s, err)
		}
	case Delay:
		if len(fields) != 1 {
			return Event{}, fmt.Errorf("fault: event %q: want one round count", s)
		}
		if ev.Rounds, err = strconv.Atoi(fields[0]); err != nil || ev.Rounds < 1 {
			return Event{}, fmt.Errorf("fault: event %q: bad rounds %q", s, fields[0])
		}
	case Partition, Crash, Pause:
		if len(fields) == 0 || fields[0] == "" {
			return Event{}, fmt.Errorf("fault: event %q: want node list", s)
		}
		for _, f := range fields {
			ev.Nodes = append(ev.Nodes, tuple.NodeID(strings.TrimSpace(f)))
		}
	case LinkLoss:
		if len(fields) != 3 {
			return Event{}, fmt.Errorf("fault: event %q: want from,to,probability", s)
		}
		ev.Nodes = []tuple.NodeID{tuple.NodeID(strings.TrimSpace(fields[0])), tuple.NodeID(strings.TrimSpace(fields[1]))}
		if ev.P, err = parseProb(fields[2]); err != nil {
			return Event{}, fmt.Errorf("fault: event %q: %w", s, err)
		}
	case LinkDelay:
		if len(fields) != 4 {
			return Event{}, fmt.Errorf("fault: event %q: want from,to,rounds,jitter", s)
		}
		ev.Nodes = []tuple.NodeID{tuple.NodeID(strings.TrimSpace(fields[0])), tuple.NodeID(strings.TrimSpace(fields[1]))}
		if ev.Rounds, err = strconv.Atoi(fields[2]); err != nil || ev.Rounds < 1 {
			return Event{}, fmt.Errorf("fault: event %q: bad rounds %q", s, fields[2])
		}
		if ev.Jitter, err = strconv.Atoi(fields[3]); err != nil || ev.Jitter < 0 {
			return Event{}, fmt.Errorf("fault: event %q: bad jitter %q", s, fields[3])
		}
	}
	return ev, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("bad probability %q", s)
	}
	return p, nil
}
