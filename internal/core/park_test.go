package core

import (
	"fmt"
	"slices"
	"testing"

	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// parkLine is the relay fixture: the sim line n0–n1–n2 with the inbox
// gradient at n2, over which n0 has sent msgs Downhill messages.
type parkLine struct {
	t    *testing.T
	sim  *transport.Sim
	n    [3]*Node
	msgs []tuple.ID
}

func newParkLine(t *testing.T, msgs int) *parkLine {
	t.Helper()
	g := topology.Line(3)
	pl := &parkLine{t: t, sim: transport.NewSim(g, transport.SimConfig{})}
	for i := range pl.n {
		id := topology.NodeName(i)
		pl.n[i] = New(pl.sim.Attach(id, nil))
		pl.sim.Bind(id, pl.n[i])
	}
	if _, err := pl.n[2].Inject(pattern.NewGradient("inbox")); err != nil {
		t.Fatal(err)
	}
	pl.quiesce()
	for i := 0; i < msgs; i++ {
		id, err := pl.n[0].Inject(pattern.NewDownhill("inbox", tuple.I("seq", int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		pl.msgs = append(pl.msgs, id)
		pl.quiesce()
	}
	if got := len(pl.n[2].Read(tuple.Match(pattern.KindDownhill))); got != msgs {
		t.Fatalf("n2 stores %d of %d messages", got, msgs)
	}
	return pl
}

// quiesce runs the line until no packets are in flight and then checks
// that every node's state table and store agree (see checkStoreRows).
func (pl *parkLine) quiesce() {
	pl.t.Helper()
	pl.sim.RunUntilQuiet(100000)
	if pl.sim.Pending() != 0 {
		pl.t.Fatal("network did not quiesce")
	}
	for _, n := range pl.n {
		if err := checkStoreRows(n); err != nil {
			pl.t.Fatal(err)
		}
	}
}

// checkStoreRows checks that n's state table and store give one account
// of every id: no id is in more than one of the slab, parked and
// retracted; a row is marked stored exactly when the store holds its
// copy, the identical instance at the row's hop; and the store holds no
// copy of an id that has no row unless the id is parked.
func checkStoreRows(n *Node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	tab := &n.states
	// Both sets sort by source, then seq: one merge finds any overlap.
	for p, r := tab.parked, tab.retracted; len(p) > 0 && len(r) > 0; {
		if p[0].node == r[0].node && p[0].lo <= r[0].hi && r[0].lo <= p[0].hi {
			return fmt.Errorf("%s: %s's seqs %d-%d are parked and %d-%d retracted",
				n.id, p[0].node, p[0].lo, p[0].hi, r[0].lo, r[0].hi)
		}
		if p[0].node < r[0].node || p[0].node == r[0].node && p[0].hi < r[0].hi {
			p = p[1:]
		} else {
			r = r[1:]
		}
	}
	var err error
	tab.forEach(func(id tuple.ID, st *tupleState) {
		c, hop, stored := n.store.get(id)
		switch {
		case err != nil:
		case tab.parked.has(id) || tab.retracted.has(id):
			err = fmt.Errorf("%s: %v has a row and is parked or retracted", n.id, id)
		case st.has(stStored) != stored || stored && (c != st.local || hop != st.hop):
			err = fmt.Errorf("%s: %v's row (stored %v, hop %d) disagrees with the store (holds %v, hop %d)",
				n.id, id, st.has(stStored), st.hop, stored, hop)
		}
	})
	if err != nil {
		return err
	}
	for _, id := range n.store.ids() {
		if tab.lookup(id) == nil && !tab.parked.has(id) {
			return fmt.Errorf("%s: the store holds %v, which has no row and is not parked", n.id, id)
		}
	}
	return nil
}

// rows returns the number of rows node i keeps in its state slab.
func (pl *parkLine) rows(i int) int {
	pl.n[i].mu.Lock()
	defer pl.n[i].mu.Unlock()
	return pl.n[i].states.len()
}

// parked returns the seq runs node i keeps for n0's tuples.
func (pl *parkLine) parked(i int) runSet {
	pl.n[i].mu.Lock()
	defer pl.n[i].mu.Unlock()
	return n0Runs(pl.n[i].states.parked)
}

// retracted returns the retracted seq runs node i keeps for n0's tuples.
func (pl *parkLine) retracted(i int) runSet {
	pl.n[i].mu.Lock()
	defer pl.n[i].mu.Unlock()
	return n0Runs(pl.n[i].states.retracted)
}

// n0Runs returns a copy of the runs of s that name n0's tuples.
func n0Runs(s runSet) runSet {
	return slices.DeleteFunc(slices.Clone(s), func(r idRun) bool { return r.node != topology.NodeName(0) })
}

// n0Run is n0's run of seqs lo to hi.
func n0Run(lo, hi uint64) idRun { return idRun{topology.NodeName(0), lo, hi} }

func (pl *parkLine) encode(m wire.Message) []byte {
	pl.t.Helper()
	data, err := wire.Encode(m)
	if err != nil {
		pl.t.Fatal(err)
	}
	return data
}

// message rebuilds message k as n0 injected it.
func (pl *parkLine) message(k int) tuple.Tuple {
	m := pattern.NewDownhill("inbox", tuple.I("seq", int64(k)))
	m.SetID(pl.msgs[k])
	return m
}

// messageFrame encodes message k as n0 broadcast it.
func (pl *parkLine) messageFrame(k int) []byte {
	pl.t.Helper()
	return pl.encode(wire.Message{Type: wire.MsgTuple, Tuple: pl.message(k)})
}

// TestRelayRowsPark: a node that injects, relays or stores a message
// that goes no further keeps no row for it — n0, n1 and n2 hold exactly
// the gradient's row, and each holds one seq run for n0's thousand
// messages — while duplicates are still recognized: a replayed message
// is counted in DupDropped, relayed no further, and leaves no row behind.
func TestRelayRowsPark(t *testing.T) {
	const msgs = 1000
	pl := newParkLine(t, msgs)
	for i := range pl.n {
		if got := pl.rows(i); got != 1 {
			t.Errorf("n%d keeps %d rows after %d messages, want 1 (the gradient)", i, got, msgs)
		}
		if got, want := pl.parked(i), n0Run(1, msgs); len(got) != 1 || got[0] != want {
			t.Errorf("n%d parked runs = %v, want %v", i, got, want)
		}
	}

	relay := pl.n[1]
	before := relay.Stats()
	relay.HandlePacket(topology.NodeName(0), pl.messageFrame(msgs/2))
	pl.quiesce()
	after := relay.Stats()
	if after.DupDropped != before.DupDropped+1 {
		t.Errorf("replay: DupDropped %d → %d, want +1", before.DupDropped, after.DupDropped)
	}
	if after.Broadcasts != before.Broadcasts {
		t.Errorf("replay was relayed: Broadcasts %d → %d", before.Broadcasts, after.Broadcasts)
	}
	if got := pl.rows(1); got != 1 {
		t.Errorf("replay left n1 with %d rows, want 1", got)
	}
	if got := len(pl.n[2].Read(tuple.Match(pattern.KindDownhill))); got != msgs {
		t.Errorf("replay changed n2's store: %d messages", got)
	}
}

// TestRetractOfParkedIDForwarded: a parked id is still a tuple the node
// saw, so a retraction of it is forwarded exactly as for a kept row —
// Node.Retract at the source, the MsgRetract at the relay — and reaches
// the destination's copy. Every node then buries the id: its parked mark
// gives way to one retracted seq run. An id the relay never saw is
// buried and not forwarded.
func TestRetractOfParkedIDForwarded(t *testing.T) {
	const msgs = 20
	pl := newParkLine(t, msgs)
	k := 7
	pl.n[0].Retract(pl.msgs[k])
	pl.quiesce()
	for i, n := range pl.n {
		if got := n.Stats().Retracted; got != 1 {
			t.Errorf("n%d Retracted = %d, want 1", i, got)
		}
	}
	got := pl.n[2].Read(tuple.Match(pattern.KindDownhill))
	if len(got) != msgs-1 {
		t.Fatalf("n2 stores %d messages after the retraction, want %d", len(got), msgs-1)
	}
	for _, m := range got {
		if m.ID() == pl.msgs[k] {
			t.Fatalf("n2 still stores the retracted message %s", m.ID())
		}
	}
	for i := range pl.n {
		if got := pl.rows(i); got != 1 {
			t.Errorf("n%d keeps %d rows, want 1 (the gradient)", i, got)
		}
		if got := pl.parked(i); len(got) != 2 || got[0] != n0Run(1, 7) || got[1] != n0Run(9, msgs) {
			t.Errorf("n%d parked runs = %v, want [{1 7} {9 %d}]", i, got, msgs)
		}
	}
	for i := range pl.n {
		if got := pl.retracted(i); len(got) != 1 || got[0] != n0Run(8, 8) {
			t.Errorf("n%d retracted runs = %v, want [{8 8}]", i, got)
		}
	}

	// A retraction of an id n1 never saw is a tombstone only.
	relay := pl.n[1]
	unseen := tuple.ID{Node: topology.NodeName(0), Seq: 5000}
	before := relay.Stats()
	relay.HandlePacket(topology.NodeName(0), pl.encode(wire.Message{Type: wire.MsgRetract, ID: unseen}))
	pl.quiesce()
	if after := relay.Stats(); after.Retracted != before.Retracted || after.Broadcasts != before.Broadcasts {
		t.Errorf("retract of an unseen id was forwarded: Retracted +%d, Broadcasts +%d",
			after.Retracted-before.Retracted, after.Broadcasts-before.Broadcasts)
	}
	if got := pl.retracted(1); len(got) != 2 || got[1] != n0Run(5000, 5000) || pl.rows(1) != 1 {
		t.Errorf("after an unseen retract: n1 retracted runs %v, %d rows", got, pl.rows(1))
	}
}

// diffStats returns after − before, field by field.
func diffStats(after, before Stats) Stats {
	d, b := after.fields(), before.fields()
	for i := range d {
		*d[i] -= *b[i]
	}
	return after
}

// msgTap records the messages a node receives and hands each packet on
// to the node.
type msgTap struct {
	*Node
	got []wire.Message
}

func (m *msgTap) HandlePacket(from tuple.NodeID, data []byte) {
	if msg, err := wire.Decode(tuple.DefaultRegistry, data); err == nil {
		m.got = append(m.got, msg)
	}
	m.Node.HandlePacket(from, data)
}

// TestBuriedIDReplays: every path that meets a buried id acts on the
// tombstone alone and leaves no row behind. A full copy is a dropped
// duplicate, a digest entry pulls nothing, a pull is answered with the
// retraction, a second retraction — by MsgRetract or by Node.Retract —
// is a no-op, and a late copy of an expired leased flood is dropped.
func TestBuriedIDReplays(t *testing.T) {
	const msgs = 10
	pl := newParkLine(t, msgs)
	relay, src, dst := pl.n[1], topology.NodeName(0), topology.NodeName(2)
	k := 3
	id := pl.msgs[k]
	pl.n[0].Retract(id)
	pl.quiesce()
	tap := &msgTap{Node: pl.n[2]}
	pl.sim.Bind(dst, tap)

	for _, r := range []struct {
		name string
		from tuple.NodeID
		data []byte
		want func(d Stats) bool
	}{
		{"full copy", src, pl.messageFrame(k),
			func(d Stats) bool { return d.DupDropped == 1 && d.Broadcasts == 0 }},
		{"digest entry", dst, pl.encode(wire.Message{Type: wire.MsgDigest, Digest: []wire.DigestEntry{{ID: id, Ver: 1}}}),
			func(d Stats) bool { return d.PullsOut == 0 && d.PullsSuppressed == 0 }},
		{"pull", dst, pl.encode(wire.Message{Type: wire.MsgPull, Want: []tuple.ID{id}}),
			func(d Stats) bool {
				return len(tap.got) == 1 && tap.got[0].Type == wire.MsgRetract && d.Broadcasts == 0
			}},
		{"second MsgRetract", src, pl.encode(wire.Message{Type: wire.MsgRetract, ID: id}),
			func(d Stats) bool { return d.Retracted == 0 && d.Broadcasts == 0 }},
		{"repeated Node.Retract", "", nil,
			func(d Stats) bool { return d.Retracted == 0 && d.Broadcasts == 0 }},
	} {
		before := relay.Stats()
		if r.data != nil {
			relay.HandlePacket(r.from, r.data)
		} else {
			relay.Retract(id)
		}
		pl.quiesce()
		if d := diffStats(relay.Stats(), before); !r.want(d) {
			t.Errorf("%s: DupDropped +%d, Broadcasts +%d, PullsOut +%d, Retracted +%d, n2 received %v",
				r.name, d.DupDropped, d.Broadcasts, d.PullsOut, d.Retracted, tap.got)
		}
		if got := pl.rows(1); got != 1 {
			t.Errorf("%s left n1 with %d rows, want 1", r.name, got)
		}
	}
	if got := pl.n[2].Stats().Retracted; got != 1 {
		t.Errorf("n2 Retracted = %d after the pull's answer, want 1", got)
	}

	// A lease expiry buries the id locally: a late copy is a duplicate.
	f := pattern.NewFlood("lease").Expires(5)
	fid, err := pl.n[0].Inject(f)
	if err != nil {
		t.Fatal(err)
	}
	pl.quiesce()
	if got := relay.SweepExpired(10); got != 1 {
		t.Fatalf("n1 expired %d copies, want 1", got)
	}
	late := pattern.NewFlood("lease").Expires(5)
	late.SetID(fid)
	before := relay.Stats()
	relay.HandlePacket(src, pl.encode(wire.Message{Type: wire.MsgTuple, Tuple: late}))
	pl.quiesce()
	if d := diffStats(relay.Stats(), before); d.DupDropped != 1 || d.Broadcasts != 0 || d.Stored != 0 {
		t.Errorf("late copy of an expired flood: DupDropped +%d, Broadcasts +%d, Stored +%d",
			d.DupDropped, d.Broadcasts, d.Stored)
	}
	if got := pl.rows(1); got != 1 || !pl.n[1].states.retracted.has(fid) {
		t.Errorf("after the expiry: n1 keeps %d rows, want 1, and the id buried", got)
	}
}

// TestDigestNamingParkedIDPulls: a digest entry naming a parked plain id
// meets a node that saw the tuple but never consumed the sender's
// versioned announcement, so it pulls once; the reply is a duplicate
// (dropped, not relayed), and records the version, so the same entry
// pulls no more.
func TestDigestNamingParkedIDPulls(t *testing.T) {
	pl := newParkLine(t, 10)
	relay, dst := pl.n[1], topology.NodeName(2)
	id := pl.msgs[3]
	digest, err := wire.Encode(wire.Message{Type: wire.MsgDigest, Digest: []wire.DigestEntry{{ID: id, Ver: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	before := relay.Stats()
	relay.HandlePacket(dst, digest)
	pl.quiesce()
	after := relay.Stats()
	if after.PullsOut != before.PullsOut+1 {
		t.Fatalf("digest naming a parked id: PullsOut +%d, want +1", after.PullsOut-before.PullsOut)
	}
	if after.DupDropped != before.DupDropped+1 || after.Broadcasts != before.Broadcasts {
		t.Errorf("pull reply: DupDropped +%d (want +1), Broadcasts +%d (want 0)",
			after.DupDropped-before.DupDropped, after.Broadcasts-before.Broadcasts)
	}
	relay.HandlePacket(dst, digest)
	pl.quiesce()
	if again := relay.Stats(); again.PullsOut != after.PullsOut {
		t.Errorf("the same digest entry pulled again: PullsOut +%d", again.PullsOut-after.PullsOut)
	}
	// The consumed version is a peer row: the id no longer parks.
	if got := pl.rows(1); got != 2 {
		t.Errorf("n1 keeps %d rows, want 2 (gradient + the pulled id)", got)
	}
}

// TestZeroIDMessagesDropped: the relay's freed slots hold the zero id,
// and no tuple carries it, so a tuple, retraction or digest entry naming
// it is dropped before the state table: no row is made, no freed slot
// is tombstoned or freed twice, and the next message is still relayed.
func TestZeroIDMessagesDropped(t *testing.T) {
	pl := newParkLine(t, 1)
	relay, from := pl.n[1], topology.NodeName(0)
	zero := pattern.NewDownhill("inbox", tuple.I("seq", int64(-1)))
	for _, m := range []wire.Message{
		{Type: wire.MsgRetract},
		{Type: wire.MsgTuple, Tuple: zero},
		{Type: wire.MsgDigest, Digest: []wire.DigestEntry{{Ver: 1}}},
		{Type: wire.MsgPull, Want: []tuple.ID{{}}},
		{Type: wire.MsgWithdraw},
	} {
		data, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		relay.HandlePacket(from, data)
		pl.quiesce()
		if got := pl.rows(1); got != 1 {
			t.Fatalf("after a %v naming the zero id, n1 keeps %d rows, want 1", m.Type, got)
		}
	}
	before := relay.Stats()
	for i := 0; i < 2; i++ {
		if _, err := pl.n[0].Inject(pattern.NewDownhill("inbox", tuple.I("seq", int64(i+1)))); err != nil {
			t.Fatal(err)
		}
		pl.quiesce()
	}
	if after := relay.Stats(); after.Broadcasts != before.Broadcasts+2 || after.DupDropped != before.DupDropped {
		t.Errorf("next messages: Broadcasts +%d (want 2), DupDropped +%d (want 0)",
			after.Broadcasts-before.Broadcasts, after.DupDropped-before.DupDropped)
	}
	if got := len(pl.n[2].Read(tuple.Match(pattern.KindDownhill))); got != 3 {
		t.Errorf("n2 stores %d messages, want 3", got)
	}
	if got := pl.rows(1); got != 1 {
		t.Errorf("n1 keeps %d rows, want 1", got)
	}
}

// TestReadOnlyPathsLeaveParkedIDs: a pull, a withdraw and a
// policy-denied Node.Retract naming a parked id act as on the
// visited-only row — nothing to send, nothing to withdraw, nothing
// retracted — and leave the id parked.
func TestReadOnlyPathsLeaveParkedIDs(t *testing.T) {
	pl := newParkLine(t, 10)
	relay, dst := pl.n[1], topology.NodeName(2)
	id := pl.msgs[3]
	before := relay.Stats()
	for _, m := range []wire.Message{
		{Type: wire.MsgPull, Want: []tuple.ID{id}},
		{Type: wire.MsgWithdraw, ID: id},
	} {
		data, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		relay.HandlePacket(dst, data)
		pl.quiesce()
	}
	relay.mu.Lock()
	relay.cfg.Policy = PolicyFunc(func(op Op, _ tuple.NodeID, _ tuple.Tuple) bool { return op != OpRetract })
	relay.mu.Unlock()
	relay.Retract(id)
	pl.quiesce()
	after := relay.Stats()
	if after.Unicasts != before.Unicasts || after.Broadcasts != before.Broadcasts || after.Retracted != before.Retracted {
		t.Errorf("read-only paths sent or retracted: Unicasts +%d, Broadcasts +%d, Retracted +%d",
			after.Unicasts-before.Unicasts, after.Broadcasts-before.Broadcasts, after.Retracted-before.Retracted)
	}
	if got := pl.rows(1); got != 1 {
		t.Errorf("n1 keeps %d rows, want 1 (the gradient)", got)
	}
	if got := pl.parked(1); len(got) != 1 || got[0] != n0Run(1, 10) {
		t.Errorf("n1 parked runs = %v, want [{1 10}]", got)
	}
}

// TestMaintainedSourceRowNeverParks: a source that does not store its
// own maintained structure keeps the row, because its source mark is
// what stops maintenance from adopting the structure back when a
// neighbor announces it.
func TestMaintainedSourceRowNeverParks(t *testing.T) {
	pl := newParkLine(t, 0)
	src := pl.n[0]
	id, err := src.Inject(pattern.NewGradient("shy").Bounded(-1)) // value 0 is already out of scope
	if err != nil {
		t.Fatal(err)
	}
	pl.quiesce()
	if _, ok := src.states.handleOf(id); !ok || len(src.states.parked) != 0 {
		t.Fatalf("the unstored maintained source row was parked")
	}
	echo := pattern.NewGradient("shy")
	echo.SetID(id)
	echo.Val = 1
	data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Tuple: echo, Parent: topology.NodeName(2)})
	if err != nil {
		t.Fatal(err)
	}
	src.HandlePacket(topology.NodeName(1), data)
	pl.quiesce()
	if got := src.Read(pattern.ByName(pattern.KindGradient, "shy")); len(got) != 0 {
		t.Errorf("the source adopted its own structure from a neighbor: %v", got)
	}
}

// editionTuple is a stored tuple that never propagates, and whose higher
// edition supersedes a lower one.
type editionTuple struct {
	tuple.Base
	edition int64
}

const kindEdition = "core-test:edition"

func init() {
	tuple.DefaultRegistry.MustRegister(kindEdition, func(id tuple.ID, c tuple.Content) (tuple.Tuple, error) {
		e := &editionTuple{edition: c.GetInt("edition")}
		e.SetID(id)
		return e, nil
	})
}

func (*editionTuple) Kind() string                    { return kindEdition }
func (e *editionTuple) Content() tuple.Content        { return tuple.Content{tuple.I("edition", e.edition)} }
func (*editionTuple) ShouldPropagate(*tuple.Ctx) bool { return false }

func (e *editionTuple) Supersedes(old tuple.Tuple) bool {
	o, ok := old.(*editionTuple)
	return ok && e.edition > o.edition
}

// eventLog subscribes to every tuple event at n.
func eventLog(n *Node) *[]Event {
	var got []Event
	n.Subscribe(tuple.MatchAll(), func(e Event) { got = append(got, e) })
	return &got
}

// TestDeleteParksRows: Delete leaves a deleted copy's row holding only
// the visited mark, and parks it as a delivery does. Deleting n2's 100
// messages leaves the gradient's row and one seq run, and a replayed
// message is still a duplicate that fires no event.
func TestDeleteParksRows(t *testing.T) {
	const msgs = 100
	pl := newParkLine(t, msgs)
	dst := pl.n[2]
	if got := len(dst.Delete(tuple.Match(pattern.KindDownhill))); got != msgs {
		t.Fatalf("Delete returned %d of %d messages", got, msgs)
	}
	pl.quiesce()
	if got := pl.rows(2); got != 1 {
		t.Errorf("n2 keeps %d rows after the delete, want 1 (the gradient)", got)
	}
	if got := pl.parked(2); len(got) != 1 || got[0] != n0Run(1, msgs) {
		t.Errorf("n2 parked runs = %v, want [{1 %d}]", got, msgs)
	}
	events := eventLog(dst)
	before := dst.Stats()
	dst.HandlePacket(topology.NodeName(1), pl.messageFrame(msgs/2))
	pl.quiesce()
	if d := diffStats(dst.Stats(), before); d.DupDropped != 1 || d.Stored != 0 || len(*events) != 0 {
		t.Errorf("replay of a deleted message: DupDropped +%d, Stored +%d, %d events", d.DupDropped, d.Stored, len(*events))
	}
	if got := pl.rows(2); got != 1 {
		t.Errorf("the replay left n2 with %d rows, want 1", got)
	}
}

// TestStoredCopyParks: a delivered copy that does not propagate keeps no
// row at its destination, and every path that meets it acts as on the
// row it parked, with the store as the copy's only record. A replay is a
// duplicate; a superseding copy replaces the stored one with one event;
// a pull is answered with the hop the copy was accepted at; Retract asks
// its policy about the stored copy, buries the id and fires one removal.
// A copy with a lease keeps its row, which the sweep reads.
func TestStoredCopyParks(t *testing.T) {
	const msgs = 1000
	pl := newParkLine(t, msgs)
	dst, relay := pl.n[2], topology.NodeName(1)
	if got := pl.rows(2); got != 1 {
		t.Errorf("n2 keeps %d rows after %d deliveries, want 1 (the gradient)", got, msgs)
	}
	events := eventLog(dst)
	step := func(name string, from tuple.NodeID, m wire.Message, want func(d Stats) bool) {
		t.Helper()
		*events = (*events)[:0]
		before := dst.Stats()
		dst.HandlePacket(from, pl.encode(m))
		pl.quiesce()
		if d := diffStats(dst.Stats(), before); !want(d) {
			t.Errorf("%s: Stored +%d, Superseded +%d, DupDropped +%d, Unicasts +%d, Broadcasts +%d",
				name, d.Stored, d.Superseded, d.DupDropped, d.Unicasts, d.Broadcasts)
		}
	}

	step("replay", relay, wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: pl.message(7)},
		func(d Stats) bool { return d.DupDropped == 1 && d.Broadcasts == 0 && len(*events) == 0 })
	if got := pl.rows(2); got != 1 || dst.StoreSize() != msgs+1 {
		t.Errorf("the replay left n2 with %d rows and %d stored", got, dst.StoreSize())
	}

	edition := func(k int64) *editionTuple {
		e := &editionTuple{edition: k}
		e.SetID(tuple.ID{Node: "editor", Seq: 1})
		return e
	}
	step("edition 1", relay, wire.Message{Type: wire.MsgTuple, Tuple: edition(1)},
		func(d Stats) bool { return d.Stored == 1 && len(*events) == 1 })
	step("edition 2", relay, wire.Message{Type: wire.MsgTuple, Tuple: edition(2)},
		func(d Stats) bool {
			return d.Superseded == 1 && d.Broadcasts == 0 && len(*events) == 1 &&
				(*events)[0].Type == TupleArrived && (*events)[0].Tuple.(*editionTuple).edition == 2
		})
	step("edition 1 again", relay, wire.Message{Type: wire.MsgTuple, Tuple: edition(1)},
		func(d Stats) bool { return d.DupDropped == 1 && len(*events) == 0 })
	if got := dst.Read(tuple.Match(kindEdition)); len(got) != 1 || got[0].(*editionTuple).edition != 2 {
		t.Errorf("n2 stores %v, want edition 2 alone", got)
	}
	if got := pl.rows(2); got != 1 || !pl.n[2].states.parked.has(edition(2).ID()) {
		t.Errorf("after the supersede n2 keeps %d rows, want 1, and the edition parked", got)
	}

	tap := &msgTap{Node: pl.n[1]}
	pl.sim.Bind(relay, tap)
	k := pl.msgs[3]
	step("pull", relay, wire.Message{Type: wire.MsgPull, Want: []tuple.ID{k}},
		func(d Stats) bool { return d.Unicasts == 1 })
	if len(tap.got) != 1 || tap.got[0].Type != wire.MsgTuple || tap.got[0].Tuple.ID() != k ||
		tap.got[0].Hop != 2 || tap.got[0].Ver != 1 {
		t.Errorf("n2 answered the pull with %+v, want the copy at hop 2, version 1", tap.got)
	}

	var subject tuple.Tuple
	dst.mu.Lock()
	dst.cfg.Policy = PolicyFunc(func(op Op, _ tuple.NodeID, t tuple.Tuple) bool {
		if op == OpRetract {
			subject = t
		}
		return true
	})
	dst.mu.Unlock()
	gone, stored := pl.msgs[5], dst.StoreSize()
	*events = (*events)[:0]
	dst.Retract(gone)
	pl.quiesce()
	if subject == nil || subject.ID() != gone {
		t.Errorf("Retract asked its policy about %v, want the stored copy of %v", subject, gone)
	}
	if len(*events) != 1 || (*events)[0].Type != TupleRemoved || (*events)[0].Tuple.ID() != gone {
		t.Errorf("Retract fired %v, want one removal of %v", *events, gone)
	}
	if dst.StoreSize() != stored-1 || !dst.states.retracted.has(gone) || dst.states.parked.has(gone) {
		t.Errorf("after Retract n2 stores %d, want %d, and the id buried", dst.StoreSize(), stored-1)
	}
	dst.mu.Lock()
	dst.cfg.Policy = nil
	dst.mu.Unlock()

	// A flood scoped to one hop stops at n2 but carries a lease: its row
	// holds the storage time the sweep reads, so it stays.
	fid, err := pl.n[1].Inject(pattern.NewFlood("lease").Within(1).Expires(5))
	if err != nil {
		t.Fatal(err)
	}
	pl.quiesce()
	if _, ok := dst.states.handleOf(fid); !ok {
		t.Fatal("the leased copy's row was parked")
	}
	*events = (*events)[:0]
	if got := dst.SweepExpired(10); got != 1 || len(*events) != 1 || (*events)[0].Type != TupleRemoved {
		t.Errorf("the sweep expired %d copies with events %v, want the leased flood", got, *events)
	}
	pl.quiesce()
}
