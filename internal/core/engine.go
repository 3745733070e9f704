package core

import (
	"errors"
	"math"

	"tota/internal/agg"
	"tota/internal/transport"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// tupleState flag bits (see tupleState.flags). The booleans of the
// pre-columnar layout, packed so the state packs into the slab.
const (
	// stStored: the tuple is currently in the local space.
	stStored uint8 = 1 << iota
	// stVisited: OnArrive already ran at this node.
	stVisited
	// stPropagated: the stored copy was re-broadcast, so newcomers get
	// it too.
	stPropagated
	// stSource: this node injected the tuple.
	stSource
	// stSupportTab: a maintenance support table was ever recorded for
	// the structure (the old "nbrVals map is non-nil"), gating the
	// withdraw pipeline for ids that never carried support.
	stSupportTab
	// stParentFlap: a parent-only re-announcement (value unchanged) was
	// already queued this refresh epoch; later parent changes wait for
	// the next refresh. With stale parent views (packet loss), support
	// ties can flip a parent on every announcement, and with the value
	// still, no scope bound ever stops that loop. Cleared by refresh.
	stParentFlap
	// stDirty: the row's id is on Node.dirty (see announceLocked).
	stDirty
)

// tupleState is the engine's per-tuple-id bookkeeping, tracking dedup
// and maintenance support tables. States live by value in the
// stateTable slab, packed: flag booleans share one bitmask, integers
// are right-sized, and the per-neighbor maps of the pre-columnar layout
// are one sorted peer slice (see tuplePeer), so the refresh/digest
// loops walk contiguous rows.
type tupleState struct {
	// local is the stored copy (nil when not stored), the same instance
	// the store holds. It stays on the row so maintenance and refresh
	// read it without a store lookup; a row that holds nothing else parks
	// (see stateTable.park), leaving the store as the copy's only record.
	local tuple.Tuple
	// exemplar retains the last maintained tuple heard in full, so
	// digest-driven maintenance can re-adopt a structure after a
	// withdrawal without pulling full bytes again. Cleared on
	// retraction.
	exemplar tuple.Maintained
	// encCache holds the wire encoding of the stored copy's last
	// announcement, with the hop and parent it was built for. Catch-up,
	// pull replies and flushes re-send unchanged announcements; the cache
	// makes those re-sends zero-encode and zero-copy: bytes handed to a
	// transport are never written again, so they are shared.
	// Dropped whenever the stored copy changes (see putCopyLocked).
	encCache []byte
	// peers is the per-neighbor row set, sorted by neighbor id: the
	// maintenance support table, the consumed-announcement versions and
	// the anti-entropy pull backoff that used to live in three separate
	// maps. Sorted order makes every scan deterministic by construction.
	// Every row names a current neighbor, so maintenance reads rows
	// unchecked: a row is made only from a neighbor's packet (the
	// transports deliver across live links only), and
	// handleNeighborRemovedLocked drops a departed peer's rows.
	peers []tuplePeer
	// parent is the neighbor the maintained value was adopted from.
	parent    tuple.NodeID
	encParent tuple.NodeID
	// storedAt is the node's logical time when the copy was last
	// (re)stored, for lease expiry.
	storedAt float64
	// traceID is the tuple's sampled trace identity (zero = unsampled,
	// the fast path: no span bookkeeping, version-1 wire bytes). Set at
	// inject when sampling elects the tuple, or adopted from an
	// arriving traced announcement.
	traceID uint64
	// span is the current copy incarnation's span id and spanSeq the
	// incarnation counter behind it; parentSpan references the upstream
	// hop's span that caused the current copy. Spans only change
	// together with the announcement version, so a neighbor holding the
	// current ver also holds the current span.
	span, parentSpan uint64
	// ver is this node's announcement version for the tuple: bumped
	// whenever the announcement bytes change (stored copy, hop, or
	// parent), never reset, so equal versions imply identical
	// announcements. Carried on full announcements and digest entries;
	// 0 means "never announced" and is never put on the wire.
	ver uint32
	// refreshedVer is the last ver whose full bytes were broadcast to
	// the whole neighborhood. Refresh re-sends full bytes only when it
	// differs from ver, and advertises a digest entry otherwise.
	refreshedVer uint32
	// suspectEpoch, when non-zero, marks the copy as suspect: support
	// aged out at refresh epoch suspectEpoch-1 and the withdraw is
	// deferred until suspicionEpochs epochs pass without support
	// returning (the +1 keeps zero meaning "not suspect"). Truncated to
	// 32 bits; comparisons use wrap-safe subtraction and the grace
	// window is tiny, so the width never shows.
	suspectEpoch uint32
	spanSeq      uint32
	// hop is the hop count of the accepted copy.
	hop    int32
	encHop uint16
	flags  uint8
}

func (st *tupleState) has(f uint8) bool { return st.flags&f != 0 }
func (st *tupleState) mark(f uint8)     { st.flags |= f }
func (st *tupleState) unmark(f uint8)   { st.flags &^= f }

// dropCopy clears the row's stored copy; the caller removes it from the
// store.
func (st *tupleState) dropCopy() {
	st.unmark(stStored)
	st.local = nil
	st.encCache = nil
	st.parent = ""
}

// tuplePeer flag bits.
const (
	// peerSupport: val/parent/epoch form a live maintenance support
	// entry (the old nbrVals membership).
	peerSupport uint8 = 1 << iota
	// peerVer: ver records the last announcement version whose content
	// this node consumed from the peer (the old nbrVer membership).
	peerVer
)

// tuplePeer is one neighbor's row of a tuple's per-neighbor state:
// the last value (and parent) the neighbor announced for the structure,
// the refresh epoch it was heard at (entries not re-heard within
// staleEpochs cycles lose support, so lost withdrawals cannot sustain
// phantom support), the neighbor's copy span from its last full traced
// announcement (kept across digest refreshes: a matching digest entry
// implies the span is unchanged), the last consumed announcement
// version (a digest entry matching it proves nothing changed,
// suppressing the anti-entropy pull), and the capped exponential pull
// backoff (strikes counts pulls sent without a consumed response, skip
// how many further digest mentions to ignore before the next one).
type tuplePeer struct {
	id      tuple.NodeID
	span    uint64
	val     float64
	parent  tuple.NodeID
	epoch   uint32
	ver     uint32
	flags   uint8
	strikes uint8
	skip    uint16
}

// peerIdx binary-searches the sorted peer rows for id, returning the
// insertion slot and whether the row exists.
func (st *tupleState) peerIdx(id tuple.NodeID) (int, bool) {
	lo, hi := 0, len(st.peers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.peers[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(st.peers) && st.peers[lo].id == id
}

// peer returns id's row, or nil. The pointer is invalidated by the next
// peerFor/dropPeer on the same state.
func (st *tupleState) peer(id tuple.NodeID) *tuplePeer {
	if i, ok := st.peerIdx(id); ok {
		return &st.peers[i]
	}
	return nil
}

// peerFor returns id's row, inserting a zero row in sorted position on
// first sight. The pointer is invalidated by the next peerFor/dropPeer
// on the same state. hint sizes the first allocation: rows track the
// node's neighbors, so reserving degree slots up front keeps append
// from rounding a 5-neighbor table up to an 8-row backing array —
// at 64 B a row that overshoot dominated per-node state at scale.
func (st *tupleState) peerFor(id tuple.NodeID, hint int) *tuplePeer {
	i, ok := st.peerIdx(id)
	if !ok {
		if st.peers == nil && hint > 1 {
			st.peers = make([]tuplePeer, 0, hint)
		}
		st.peers = append(st.peers, tuplePeer{})
		copy(st.peers[i+1:], st.peers[i:])
		st.peers[i] = tuplePeer{id: id}
	}
	return &st.peers[i]
}

// dropPeer removes id's row entirely (neighbor departure), reporting
// whether the removed row held live support.
func (st *tupleState) dropPeer(id tuple.NodeID) (hadSupport, had bool) {
	i, ok := st.peerIdx(id)
	if !ok {
		return false, false
	}
	hadSupport = st.peers[i].flags&peerSupport != 0
	st.peers = append(st.peers[:i], st.peers[i+1:]...)
	return hadSupport, true
}

// resetBackoff clears a row's pull backoff: the peer delivered usable
// content, so it is alive and answering.
func (p *tuplePeer) resetBackoff() { p.strikes, p.skip = 0, 0 }

// traceCtx is the wire trace context of the current copy incarnation:
// zero for unsampled tuples, so untraced announcements stay version-1
// bytes.
func (st *tupleState) traceCtx() wire.TraceCtx {
	return wire.TraceCtx{TraceID: st.traceID, Span: st.span}
}

// The protocol's fixed robustness constants (DESIGN.md §9).
const (
	// staleEpochs is how many full refresh cycles an announcement stays
	// valid without being re-heard.
	staleEpochs = 2
	// suspicionEpochs is the grace window, in refresh epochs, a stored
	// maintained copy whose support aged out survives before it is
	// withdrawn. The copy keeps being announced meanwhile, so a loss
	// burst of a few epochs costs no withdraw/re-propagation storm.
	suspicionEpochs = 2
	// pullBackoffCap caps the skip gap of the per-(neighbor, tuple) pull
	// backoff (see allowPullLocked).
	pullBackoffCap = 6
)

// stateFor returns id's row, making one on first sight; nil for a
// buried id. A parked id comes back as the row it was parked as:
// visited, and stored, with its copy and hop, when the store holds one.
func (n *Node) stateFor(id tuple.ID) *tupleState {
	st, unparked := n.states.intern(id)
	if unparked {
		if t, hop, ok := n.store.get(id); ok {
			st.mark(stStored)
			st.local, st.hop = t, hop
		}
	}
	return st
}

// lockedStore exposes the local space to propagation hooks running
// inside the engine lock.
type lockedStore struct {
	n *Node
}

var _ tuple.LocalStore = lockedStore{}

func (s lockedStore) Read(tpl tuple.Template) []tuple.Tuple {
	return s.n.store.read(tpl)
}

func (s lockedStore) Delete(tpl tuple.Template) []tuple.Tuple {
	return s.n.deleteLocked(tpl)
}

// MinValue senses a structure: the minimum Read would find, without
// copying any tuple.
func (s lockedStore) MinValue(kind, name string) (float64, bool) {
	return s.n.store.minValue(kind, name)
}

// ctxLocked returns the hook context, kept in the call's scratch.
func (n *Node) ctxLocked(from tuple.NodeID, hop int) *tuple.Ctx {
	pos, ok := n.localizer.Position()
	c := &n.scratchLocked().ctx
	*c = tuple.Ctx{Self: n.id, From: from, Hop: hop, Pos: pos, HasPos: ok, Store: lockedStore{n: n}}
	return c
}

// HandlePacket implements transport.Handler.
func (n *Node) HandlePacket(from tuple.NodeID, data []byte) {
	n.mu.Lock()
	msg := &n.scratchLocked().msg
	if err := wire.DecodeInto(tuple.DefaultRegistry, data, msg); err != nil {
		n.unlock()
		n.noteDecodeError(from, err)
		return
	}
	if msg.Type == wire.MsgBatch {
		n.stats.FramesIn.Add(1)
		for i := range msg.Batch {
			n.handleMsgLocked(from, &msg.Batch[i])
		}
	} else {
		n.handleMsgLocked(from, msg)
	}
	n.unlock()
}

// handleMsgLocked dispatches one engine message (a whole packet, or one
// sub-message of a batch frame). A tuple, retraction or digest entry
// naming the zero id is dropped: Inject never assigns it, and the state
// table marks its freed slots with it.
func (n *Node) handleMsgLocked(from tuple.NodeID, msg *wire.Message) {
	n.stats.PacketsIn.Add(1)
	switch msg.Type {
	case wire.MsgTuple:
		if !msg.Env.ID.IsZero() && n.handleTupleLocked(from, msg) {
			n.states.parkPlain(msg.Env.ID, &n.store)
		}
	case wire.MsgRetract:
		n.handleRetractLocked(msg.ID)
	case wire.MsgWithdraw:
		n.handleWithdrawLocked(from, msg.ID)
	case wire.MsgDigest:
		n.handleDigestLocked(from, msg)
	case wire.MsgPull:
		n.handlePullLocked(from, msg)
	case wire.MsgPartial:
		n.handlePartialLocked(from, msg)
	}
}

// HandleNeighbor implements transport.Handler.
func (n *Node) HandleNeighbor(peer tuple.NodeID, added bool) {
	n.mu.Lock()
	if added {
		n.handleNeighborAddedLocked(peer)
	} else {
		n.handleNeighborRemovedLocked(peer)
	}
	n.unlock()
}

// injectLocked runs the arrival pipeline at the injecting node.
func (n *Node) injectLocked(t tuple.Tuple, ctx *tuple.Ctx) {
	// Inject assigns a fresh seq, so a tombstone naming it was an earlier
	// incarnation's (a restarted node numbers from 1 again).
	n.states.retracted.remove(t.ID())
	st := n.stateFor(t.ID())
	st.mark(stSource | stVisited)
	if tid, ok := sampleTrace(t.ID(), n.cfg.TraceSampleRate); ok {
		// Sampling elects the tuple at its entry point; the decision
		// then travels with every announcement, so downstream nodes
		// trace it regardless of their own rate.
		st.traceID = tid
	}
	n.traceLocked(TraceEvent{Kind: TraceInject, ID: t.ID(), TupleKind: t.Kind(),
		TraceID: st.traceID, Span: n.bumpSpanLocked(t.ID(), st)})
	t.OnArrive(ctx)
	if t.ShouldStore(ctx) {
		n.putCopyLocked(st, t, 0)
		n.stats.Stored.Add(1)
		n.effectLocked(TraceEvent{}, TupleArrived, t)
	}
	if t.ShouldPropagate(ctx) {
		st.mark(stPropagated)
		if st.has(stStored) {
			// Versioned: later digest entries can prove nothing changed.
			n.announceLocked(st)
		} else {
			n.stageLocked("", wire.Message{Type: wire.MsgTuple, Tuple: t, Trace: st.traceCtx()})
		}
	}
}

// handleTupleLocked applies one tuple announcement, building the tuple
// only when this node will keep it (DESIGN.md §8). It reports whether
// the tuple is plain, so its row may park.
func (n *Node) handleTupleLocked(from tuple.NodeID, msg *wire.Message) (plain bool) {
	id, kind := msg.Env.ID, msg.Env.Kind
	st := n.states.lookup(id)
	// The envelope may settle the announcement: held is a structure the
	// row keeps an exemplar of, seen a plain tuple visited here that
	// stores no copy.
	held, seen := false, false
	switch {
	case st != nil:
		held = st.exemplar != nil && st.exemplar.Kind() == kind && msg.Env.HasValue
		// Only a plain tuple leaves a row visited with no exemplar, copy
		// or source mark.
		seen = st.exemplar == nil && st.flags&(stVisited|stStored|stSource) == stVisited
	case n.states.retracted.has(id):
		n.stats.DupDropped.Add(1)
		return false
	case n.states.parked.has(id):
		_, _, stored := n.store.get(id)
		seen = !stored
	}
	var t tuple.Tuple
	if !held && !seen {
		var err error
		if t, err = tuple.Decode(tuple.DefaultRegistry, msg.Raw); err != nil {
			n.noteDecodeError(from, err)
			return false
		}
		_, maintained := t.(tuple.Maintained)
		plain = !maintained
	}
	if st == nil {
		if st = n.stateFor(id); st == nil { // buried: retracted or expired here
			n.stats.DupDropped.Add(1)
			return plain
		}
	}
	if msg.Ver != 0 {
		// A stored-state announcement: remember the sender's version so
		// later digest entries matching it prove nothing changed. A
		// version this node has not consumed yet also resets the pull
		// backoff: the neighbor is alive and delivering new content. A
		// same-version replay does not — a poisoned-row probe answered
		// by unchanged bytes (a genuine two-node loop, not a stale row)
		// must leave the backoff growing or the probe/reply cycle would
		// re-arm itself forever.
		p := st.peerFor(from, len(n.nbrs))
		if p.flags&peerVer == 0 || p.ver != msg.Ver {
			p.resetBackoff()
		}
		p.ver = msg.Ver
		p.flags |= peerVer
	} else if p := st.peer(from); p != nil {
		p.resetBackoff()
	}
	if msg.Trace.TraceID != 0 {
		// The sender sampled this tuple: adopt its trace identity and
		// remember the upstream span so local decisions link causally
		// to the exact hop that delivered the content.
		st.traceID = msg.Trace.TraceID
		st.parentSpan = msg.Trace.Span
	}
	hop := int(msg.Hop) + 1

	// Maintained structures bypass the plain pipeline: every
	// announcement updates the support table and triggers the
	// maintenance check, which performs adoption, improvement and
	// withdrawal uniformly.
	if held {
		n.supportLocked(from, id, st, st.exemplar, msg.Env.Value, msg.Parent, msg.Trace.Span, hop)
		return false
	}
	if m, ok := t.(tuple.Maintained); ok {
		st.exemplar = m
		n.supportLocked(from, id, st, m, m.Value(), msg.Parent, msg.Trace.Span, hop)
		return false
	}

	if hop > n.cfg.MaxHops {
		n.stats.TTLDropped.Add(1)
		n.traceLocked(TraceEvent{Kind: TraceTTL, ID: id, TupleKind: kind, From: from, Hop: hop,
			TraceID: st.traceID, ParentSpan: msg.Trace.Span})
		return true
	}
	var ctx *tuple.Ctx
	var local tuple.Tuple
	if !seen {
		ctx = n.ctxLocked(from, hop)
		if local = t.Evolve(ctx); local == nil {
			local = t
		}
	}
	if st.has(stVisited) {
		if !seen && st.has(stStored) && local.Supersedes(st.local) {
			n.putCopyLocked(st, local, int32(hop))
			n.stats.Superseded.Add(1)
			span := n.bumpSpanLocked(local.ID(), st)
			n.effectLocked(TraceEvent{Kind: TraceSupersede, ID: local.ID(), TupleKind: local.Kind(), From: from, Hop: hop,
				TraceID: st.traceID, Span: span, ParentSpan: msg.Trace.Span}, TupleArrived, local)
			if local.ShouldPropagate(ctx) {
				n.announceLocked(st)
				n.traceLocked(TraceEvent{Kind: TraceForward, ID: local.ID(), TupleKind: local.Kind(), Hop: hop,
					TraceID: st.traceID, Span: span, ParentSpan: msg.Trace.Span})
			}
			return true
		}
		n.stats.DupDropped.Add(1)
		n.traceLocked(TraceEvent{Kind: TraceDup, ID: id, TupleKind: kind, From: from,
			TraceID: st.traceID, Span: st.span, ParentSpan: msg.Trace.Span})
		return true
	}
	st.mark(stVisited)
	st.hop = int32(hop)
	local.OnArrive(ctx)
	if local.ShouldStore(ctx) {
		n.putCopyLocked(st, local, st.hop)
		n.stats.Stored.Add(1)
		n.effectLocked(TraceEvent{Kind: TraceStore, ID: local.ID(), TupleKind: local.Kind(), From: from, Hop: hop,
			TraceID: st.traceID, Span: n.bumpSpanLocked(local.ID(), st), ParentSpan: msg.Trace.Span}, TupleArrived, local)
	}
	if local.ShouldPropagate(ctx) {
		st.mark(stPropagated)
		if st.has(stStored) {
			n.announceLocked(st)
		} else {
			// A pure relay still gets its own span incarnation: the
			// downstream hop's parent link must name this node, not the
			// hop before it.
			n.bumpSpanLocked(local.ID(), st)
			n.stageLocked("", wire.Message{Type: wire.MsgTuple, Hop: clampHop(hop), Tuple: local, Trace: st.traceCtx()})
		}
		n.traceLocked(TraceEvent{Kind: TraceForward, ID: local.ID(), TupleKind: local.Kind(), Hop: hop,
			TraceID: st.traceID, Span: st.span, ParentSpan: msg.Trace.Span})
	}
	return true
}

// handleDigestLocked processes an anti-entropy digest: per entry,
// refresh the support tables (maintained entries carry value and parent
// inline) and decide whether the sender's full bytes are needed. Pulls
// for missing or changed tuples are coalesced into one request per
// digest.
func (n *Node) handleDigestLocked(from tuple.NodeID, msg *wire.Message) {
	n.stats.DigestsIn.Add(1)
	s := n.scratchLocked()
	s.ids = s.ids[:0]
	for i := range msg.Digest {
		e := &msg.Digest[i]
		if e.ID.IsZero() {
			continue
		}
		st := n.stateFor(e.ID)
		if st == nil { // buried
			continue
		}
		if e.Maintained {
			n.digestMaintainedLocked(from, e, st)
			continue
		}
		if !st.has(stVisited) {
			// The digest advertises a tuple that never propagated here —
			// a lost broadcast or a fresh join. Pull the full bytes.
			n.wantLocked(st, from, e.ID)
			continue
		}
		if p := st.peer(from); p == nil || p.flags&peerVer == 0 || p.ver != e.Ver {
			// This node never consumed the sender's current announcement:
			// its versioned broadcast was lost, or the stored copy changed
			// since (superseded, re-evolved). Fetch the full bytes — the
			// response re-runs the propagation pipeline (supersede checks
			// included) and records the version, so the pull repeats only
			// until one round trip survives.
			n.wantLocked(st, from, e.ID)
		}
	}
	n.stagePullsLocked(from, s.ids)
}

// digestMaintainedLocked applies one maintained-structure digest entry:
// the entry carries everything the maintenance check consumes (value
// and parent), so a node that has ever held the structure's full bytes
// treats it exactly like a full announcement. Only nodes that never saw
// the structure pull.
func (n *Node) digestMaintainedLocked(from tuple.NodeID, e *wire.DigestEntry, st *tupleState) {
	ex := st.exemplar
	if ex == nil {
		if m, ok := st.local.(tuple.Maintained); ok {
			ex = m
		}
	}
	if ex == nil {
		// This node cannot adopt from the compact entry alone: with no
		// exemplar to rebuild content from, it needs the structure's
		// full bytes once. No support is recorded until they arrive.
		n.wantLocked(st, from, e.ID)
		return
	}
	// Digest entries carry no span; keep the one remembered from the
	// neighbor's last full announcement. When the entry's version
	// matches, that span is exactly current; when it does not (the full
	// broadcast was lost), the remembered span still names the right
	// node — an earlier incarnation — so causal links stay node-correct.
	// The compact entry carried everything maintenance needs, so the
	// neighbor is alive and answering and its pull backoff resets.
	p := st.peerFor(from, len(n.nbrs))
	p.ver = e.Ver
	p.flags |= peerVer
	p.resetBackoff()
	n.supportLocked(from, e.ID, st, ex, e.Value, e.Parent, p.span, int(e.Hop)+1)
}

// supportLocked records a neighbor's value and parent for a maintained
// structure, then runs the maintenance check with ex as the structure's
// exemplar: the step a full announcement and a digest entry share.
func (n *Node) supportLocked(from tuple.NodeID, id tuple.ID, st *tupleState, ex tuple.Maintained,
	val float64, parent tuple.NodeID, span uint64, hop int) {
	st.mark(stSupportTab)
	p := st.peerFor(from, len(n.nbrs))
	p.val, p.parent, p.epoch, p.span = val, parent, uint32(n.epoch), span
	p.flags |= peerSupport
	n.maintainLocked(id, ex, n.ctxLocked(from, hop), false)
}

// allowPullLocked gates one pull for (tuple, neighbor) — a digest pull
// or a poisoned-row staleness probe — through the capped exponential
// backoff. Every allowed pull doubles the number of subsequent mentions
// ignored before the next one (1, 2, 4, … capped at pullBackoffCap), so
// a neighbor that never delivers a usable response — crashed
// mid-protocol, or behind a one-way-lossy link — induces a decaying
// pull sequence instead of one pull per refresh epoch, and a genuine
// two-node loop cannot probe forever within one event cascade.
// Consuming new full content (or a usable maintained digest entry) from
// the neighbor resets its backoff.
func (n *Node) allowPullLocked(st *tupleState, from tuple.NodeID) bool {
	p := st.peerFor(from, len(n.nbrs))
	if p.skip > 0 {
		p.skip--
		n.stats.PullsSuppressed.Add(1)
		return false
	}
	if p.strikes < 15 {
		p.strikes++
	}
	gap := 1 << (p.strikes - 1)
	if gap > pullBackoffCap {
		gap = pullBackoffCap
	}
	p.skip = uint16(gap - 1)
	return true
}

// wantLocked queues a pull of id for the digest's sender when the
// backoff allows one; handleDigestLocked stages the queue.
func (n *Node) wantLocked(st *tupleState, from tuple.NodeID, id tuple.ID) {
	if n.allowPullLocked(st, from) {
		s := n.scratchLocked()
		s.ids = append(s.ids, id)
		n.tracePullLocked(id, from, st)
	}
}

// stagePullsLocked stages the queued pull requests for the digest
// sender, chunked against the frame payload budget.
func (n *Node) stagePullsLocked(to tuple.NodeID, ids []tuple.ID) {
	if len(ids) == 0 {
		return
	}
	start, size := 0, wire.PullOverhead
	for i := range ids {
		is := wire.PullIDSize(ids[i])
		if i > start && (size+is > n.frameLimit || i-start >= wire.MaxPullIDs) {
			n.stagePullLocked(to, ids[start:i])
			start, size = i, wire.PullOverhead
		}
		size += is
	}
	n.stagePullLocked(to, ids[start:])
}

func (n *Node) stagePullLocked(to tuple.NodeID, ids []tuple.ID) {
	if n.stageLocked(to, wire.Message{Type: wire.MsgPull, Want: ids}) {
		n.stats.PullsOut.Add(1)
	}
}

// handlePullLocked answers an anti-entropy pull: it stages for the
// puller the full announcement bytes of every requested tuple this node
// still stores. Requests for retracted structures are answered with the
// retraction, spreading the tombstone instead.
func (n *Node) handlePullLocked(from tuple.NodeID, msg *wire.Message) {
	n.stats.PullsIn.Add(1)
	for _, id := range msg.Want {
		st := n.states.lookup(id)
		if _, _, ok := n.store.get(id); ok && st == nil {
			st = n.stateFor(id) // a parked copy: its row comes back to announce it
		}
		if st == nil {
			if !n.states.retracted.has(id) {
				continue
			}
			n.stageLocked(from, wire.Message{Type: wire.MsgRetract, ID: id})
			continue
		}
		data, ok := n.storedWireLocked(st)
		if !ok {
			continue
		}
		n.stats.Unicasts.Add(1)
		// Pull-repair response: the requester's next store/supersede links
		// to this span, closing the repair loop in the trace.
		n.traceSendLocked(st, from)
		n.stageDataLocked(from, data)
	}
}

// maintainLocked re-establishes the local consistency of a maintained
// structure: a non-source node must hold value min(supporting neighbor
// values) + step, adopt it when it changes, and withdraw its copy when
// no support remains or the value exceeds the structure's scope. Support
// excludes neighbors whose announced parent is this node (poisoned
// reverse), which prevents two-node count-to-scope loops; longer stale
// cycles are bounded by the scope and by MaxHops. aged marks refresh's
// call, right after support aged out: the only one that may defer a
// withdraw (see suspicionEpochs).
func (n *Node) maintainLocked(id tuple.ID, exemplar tuple.Maintained, ctx *tuple.Ctx, aged bool) {
	st := n.stateFor(id)
	if st.has(stSource) {
		return
	}
	step := exemplar.Step()
	effMax := exemplar.MaxValue()
	if step > 0 {
		if hopCap := float64(n.cfg.MaxHops) * step; hopCap < effMax {
			effMax = hopCap
		}
	}

	best := math.Inf(1)
	poisoned := math.Inf(1)
	var bestNbr, poisonedNbr tuple.NodeID
	var bestSpan uint64
	for i := range st.peers {
		pe := &st.peers[i]
		if pe.flags&peerSupport == 0 {
			continue
		}
		if pe.parent == n.id && !n.cfg.DisablePoisonedReverse {
			if pe.val < poisoned {
				poisoned = pe.val
				poisonedNbr = pe.id
			}
			continue
		}
		// Rows are sorted by neighbor id, so the first minimum wins the
		// tie-break exactly like the explicit (val, nbr) comparison did.
		if pe.val < best || (pe.val == best && (bestNbr == "" || pe.id < bestNbr)) {
			best = pe.val
			bestNbr = pe.id
			bestSpan = pe.span
		}
	}
	desired := best + step

	if poisonedNbr != "" && poisoned+step < desired {
		// A skipped row outbids every usable support. A copy that truly
		// routed through this node would sit one step above the local
		// value, so the row's parent field is stale: the neighbor
		// re-parented but the parent-only re-announcement was lost or
		// suppressed (stParentFlap), and poisoned reverse would exclude
		// the node's genuinely best support forever. Pull the neighbor's
		// current bytes to refresh the row; the per-row backoff — which
		// same-version replies do not reset — bounds the probes when
		// the claim is a genuine loop rather than staleness.
		if n.allowPullLocked(st, poisonedNbr) {
			n.tracePullLocked(id, poisonedNbr, st)
			n.stagePullLocked(poisonedNbr, []tuple.ID{id})
		}
	}

	if math.IsInf(best, 1) || desired > effMax {
		if !st.has(stStored) {
			return
		}
		// Hysteresis: support that merely aged out (a few missed refresh
		// epochs) defers the withdraw for a grace window, so a transient
		// loss burst does not trigger a withdraw/re-propagation storm. The
		// copy keeps being announced while suspect; support returning
		// within the window cancels the suspicion silently. An explicit
		// withdraw, a neighbor going down or a scope overflow is news, not
		// silence: it withdraws at once unless the copy is already suspect.
		if aged && st.suspectEpoch == 0 {
			st.suspectEpoch = uint32(n.epoch) + 1
			n.stats.Suspected.Add(1)
			n.traceLocked(TraceEvent{Kind: TraceSuspect, ID: id})
		}
		if st.suspectEpoch == 0 || (uint32(n.epoch)+1)-st.suspectEpoch >= suspicionEpochs {
			n.dropMaintainedLocked(id, st)
		}
		return
	}
	if st.suspectEpoch != 0 {
		st.suspectEpoch = 0
		n.stats.SuspectRecovered.Add(1)
	}

	if st.has(stStored) {
		cur, ok := st.local.(tuple.Maintained)
		if !ok {
			return
		}
		if cur.Value() == desired {
			if st.parent != bestNbr {
				st.parent = bestNbr
				// One parent-only re-announcement per refresh epoch (see
				// stParentFlap); a suppressed flip still reaches the
				// neighborhood at the next refresh, whose re-encode sees
				// encParent != parent and sends full bytes.
				if !st.has(stParentFlap) {
					st.mark(stParentFlap)
					n.announceLocked(st)
				}
			}
			return
		}
		nl := cur.WithValue(desired)
		n.putCopyLocked(st, nl, int32(hopFromVal(desired, step, int(st.hop))))
		st.parent = bestNbr
		n.stats.MaintAdopt.Add(1)
		if st.traceID != 0 {
			st.parentSpan = bestSpan
		}
		n.effectLocked(TraceEvent{Kind: TraceAdopt, ID: id, TupleKind: nl.Kind(), From: bestNbr, Value: desired,
			TraceID: st.traceID, Span: n.bumpSpanLocked(id, st), ParentSpan: bestSpan}, TupleArrived, nl)
		if nl.ShouldPropagate(ctx) {
			n.announceLocked(st)
		}
		return
	}

	// Not stored: first contact or re-adoption after a withdrawal.
	nl := exemplar.WithValue(desired)
	if !st.has(stVisited) {
		st.mark(stVisited)
		nl.OnArrive(ctx)
	}
	if !nl.ShouldStore(ctx) {
		return
	}
	n.putCopyLocked(st, nl, int32(hopFromVal(desired, step, ctx.Hop)))
	st.parent = bestNbr
	n.stats.Stored.Add(1)
	if st.traceID != 0 {
		st.parentSpan = bestSpan
	}
	n.effectLocked(TraceEvent{Kind: TraceStore, ID: id, TupleKind: nl.Kind(), From: bestNbr, Hop: int(st.hop), Value: desired,
		TraceID: st.traceID, Span: n.bumpSpanLocked(id, st), ParentSpan: bestSpan}, TupleArrived, nl)
	if nl.ShouldPropagate(ctx) {
		st.mark(stPropagated)
		n.announceLocked(st)
	}
}

func (n *Node) dropMaintainedLocked(id tuple.ID, st *tupleState) {
	removed, _ := n.store.remove(id)
	st.dropCopy()
	st.suspectEpoch = 0
	n.stats.MaintDrop.Add(1)
	n.effectLocked(TraceEvent{Kind: TraceWithdraw, ID: id, TraceID: st.traceID, Span: st.span}, TupleRemoved, removed)
	n.withdrawLocked(id)
}

func (n *Node) handleWithdrawLocked(from tuple.NodeID, id tuple.ID) {
	st := n.states.lookup(id)
	if st == nil || !st.has(stSupportTab) {
		return
	}
	if p := st.peer(from); p != nil {
		p.flags &^= peerSupport
	}
	if st.has(stStored) && !st.has(stSource) {
		if m, ok := st.local.(tuple.Maintained); ok {
			n.maintainLocked(id, m, n.ctxLocked(from, int(st.hop)), false)
		}
	}
	// If this node still holds a copy after the check, re-announce it:
	// the withdrawing neighbor (and anything downstream of it) can then
	// re-adopt, healing local deletions.
	if st.has(stStored) {
		n.announceLocked(st)
	}
}

func (n *Node) handleRetractLocked(id tuple.ID) {
	if id.IsZero() {
		return
	}
	if n.states.lookup(id) == nil && !n.states.parked.has(id) {
		// Tombstone only: the structure never passed through here, so
		// no downstream copies were fed by this node.
		n.states.bury(id)
		return
	}
	n.retractLocked(id)
}

// retractLocked tears id down here and passes the retraction on. The
// row goes with it: bury leaves only the tombstone.
func (n *Node) retractLocked(id tuple.ID) {
	if n.states.retracted.has(id) {
		return
	}
	// The store, not the row, says whether a copy is here: a parked copy
	// has no row. Two records, not one: the removal's read check may trace
	// a denial, and that has always reached tracers before the retract.
	if removed, ok := n.store.remove(id); ok {
		n.effectLocked(TraceEvent{}, TupleRemoved, removed)
	}
	n.dropQueryStateLocked(id)
	n.states.bury(id)
	n.stats.Retracted.Add(1)
	n.traceLocked(TraceEvent{Kind: TraceRetract, ID: id})
	n.stageLocked("", wire.Message{Type: wire.MsgRetract, ID: id})
}

// deleteLocked extracts matching tuples from the local space, emitting
// removal events and withdrawing maintained copies from the
// neighborhood.
func (n *Node) deleteLocked(tpl tuple.Template) []tuple.Tuple {
	matched := n.store.readRaw(tpl)
	out := make([]tuple.Tuple, 0, len(matched))
	for _, t := range matched {
		id := t.ID()
		if removed, ok := n.store.remove(id); ok {
			out = append(out, removed)
			n.stateFor(id).dropCopy()
			n.effectLocked(TraceEvent{}, TupleRemoved, removed)
			if _, isM := removed.(tuple.Maintained); isM {
				n.withdrawLocked(id)
			}
			n.states.park(removed, &n.store)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (n *Node) handleNeighborAddedLocked(peer tuple.NodeID) {
	if !n.addNbrLocked(peer) {
		return
	}
	if n.cfg.DisableCatchUp {
		n.emitNeighborLocked(NeighborAdded, peer)
		return
	}
	// The paper: "when new nodes get in touch with a network, TOTA
	// automatically checks the propagation rules of the stored tuples
	// and eventually propagates the tuples to the new nodes". We stage
	// every stored propagating tuple for the newcomer, reusing the
	// cached announcement bytes when the copy is unchanged.
	for _, id := range n.storedIDsLocked() {
		st := n.states.lookup(id)
		t, _, ok := n.store.get(id)
		if !ok || st == nil {
			continue
		}
		_, isMaintained := t.(tuple.Maintained)
		if !st.has(stPropagated) && !isMaintained {
			continue
		}
		data, ok := n.storedWireLocked(st)
		if !ok {
			continue
		}
		n.stats.Unicasts.Add(1)
		n.stageDataLocked(peer, data)
	}
	n.emitNeighborLocked(NeighborAdded, peer)
}

func (n *Node) handleNeighborRemovedLocked(peer tuple.NodeID) {
	if !n.removeNbrLocked(peer) {
		return
	}
	// Re-check every maintained structure that counted the lost peer,
	// and forget what the peer last heard: if it returns, the digest
	// protocol restarts from scratch for it. The slab walk visits states
	// in handle order; the wire-affecting maintenance pass below runs in
	// sorted id order regardless.
	var affected []tuple.ID
	n.states.forEach(func(id tuple.ID, st *tupleState) {
		if hadSupport, _ := st.dropPeer(peer); hadSupport {
			if st.has(stStored) && !st.has(stSource) {
				affected = append(affected, id)
			}
		}
	})
	sortTupleIDs(affected)
	for _, id := range affected {
		st := n.states.lookup(id)
		if st == nil || !st.has(stStored) {
			continue
		}
		if m, ok := st.local.(tuple.Maintained); ok {
			n.maintainLocked(id, m, n.ctxLocked(n.id, int(st.hop)), false)
		}
	}
	n.emitNeighborLocked(NeighborRemoved, peer)
}

// storedIDsLocked snapshots the stored ids, in arrival order: callers
// may remove tuples while iterating it. A store of over 1,024 tuples
// gets a buffer of its own; in the call's scratch it would be kept, at
// its size, by every pooled scratch that ever served this node.
func (n *Node) storedIDsLocked() []tuple.ID {
	if size := n.store.size(); size > 1024 {
		return n.store.appendIDs(make([]tuple.ID, 0, size))
	}
	s := n.scratchLocked()
	s.ids = n.store.appendIDs(s.ids)
	return s.ids
}

// sweepExpiredLocked removes stored copies whose lease has elapsed and
// buries their ids locally, so announcements cannot resurrect them.
func (n *Node) sweepExpiredLocked(now float64) int {
	if now > n.now {
		n.now = now
	}
	removed := 0
	for _, id := range n.storedIDsLocked() {
		t, _, ok := n.store.get(id)
		if !ok {
			continue
		}
		e, ok := t.(tuple.Expiring)
		if !ok || e.Lease() <= 0 {
			continue
		}
		st := n.states.lookup(id)
		if st == nil || n.now-st.storedAt < e.Lease() {
			continue
		}
		n.store.remove(id)
		n.states.bury(id)
		n.dropQueryStateLocked(id)
		n.stats.Expired.Add(1)
		n.effectLocked(TraceEvent{Kind: TraceExpire, ID: id, TupleKind: t.Kind()}, TupleRemoved, t)
		if _, isM := t.(tuple.Maintained); isM {
			n.withdrawLocked(id)
		}
		removed++
	}
	return removed
}

// refreshLocked runs one anti-entropy epoch over every stored
// propagating tuple. For maintained non-source structures it first
// re-validates local consistency (a neighbor's withdrawal may itself
// have been lost). Every stored row then goes out through the batch
// flush: in full if its announcement changed since its last full
// broadcast, as a compact digest entry otherwise, and neighbors pull
// full bytes only for entries they cannot reconstruct.
func (n *Node) refreshLocked() int {
	n.epoch++
	s := n.scratchLocked()
	s.agg = s.agg[:0]
	for _, id := range n.storedIDsLocked() {
		st := n.states.lookup(id)
		t, _, ok := n.store.get(id)
		if !ok || st == nil {
			continue
		}
		if m, isMaintained := t.(tuple.Maintained); isMaintained {
			if !st.has(stSource) {
				// A new epoch re-arms the parent-only re-announcement
				// budget (see stParentFlap).
				st.unmark(stParentFlap)
				for i := range st.peers {
					pe := &st.peers[i]
					if pe.flags&peerSupport != 0 && pe.epoch+staleEpochs < uint32(n.epoch) {
						// Stale support and its span go; the row and its
						// consumed-version record stay.
						pe.flags &^= peerSupport
						pe.span = 0
					}
				}
				n.maintainLocked(id, m, n.ctxLocked(n.id, int(st.hop)), true)
				if !st.has(stStored) {
					continue
				}
			}
			if _, isQuery := st.local.(*agg.Query); isQuery {
				s.agg = append(s.agg, id)
			}
		} else if !st.has(stPropagated) {
			continue
		}
		n.announceLocked(st)
	}
	full, digested := n.stageDirtyLocked()
	n.stats.RefreshAnnounced.Add(int64(full))
	n.stats.RefreshSuppressed.Add(int64(digested))
	// Convergecast partials follow the broadcasts, as parent-link
	// unicasts.
	n.aggEpochLocked(s.agg)
	return full + digested
}

// stageDataLocked stages one encoded message for the flush: to "" broadcasts
// to the one-hop neighborhood, any other id unicasts.
func (n *Node) stageDataLocked(to tuple.NodeID, data []byte) {
	n.outbox = append(n.outbox, data)
	n.outTo = append(n.outTo, to)
}

// stageLocked encodes msg and stages it for the flush, reporting
// whether it was staged.
func (n *Node) stageLocked(to tuple.NodeID, msg wire.Message) bool {
	data, err := wire.Encode(msg)
	if err != nil {
		n.noteSendError("encode", err)
		return false
	}
	n.stageDataLocked(to, data)
	return true
}

// withdrawal is a staged withdrawal: its outbox slot and tuple id.
type withdrawal struct {
	at int
	id tuple.ID
}

// withdrawLocked stages the broadcast withdrawal of id's stored copy.
func (n *Node) withdrawLocked(id tuple.ID) {
	at := len(n.outbox)
	if n.stageLocked("", wire.Message{Type: wire.MsgWithdraw, ID: id}) {
		n.withdrawals = append(n.withdrawals, withdrawal{at: at, id: id})
	}
}

// flushLocked ends an input batch (see unlock), and is the engine's one
// exit: every message the engine emits waits in the outbox, and only
// this sends it. It first stages the dirty rows' final states, then
// sends the outbox in staging order, packing each run of messages to
// one destination into frames within the payload budget. A withdrawal
// whose row holds a copy again is dropped: the copy's re-announcement
// carries the new value and parent.
func (n *Node) flushLocked() {
	n.stageDirtyLocked()
	msgs, to := n.outbox, n.outTo
	for _, w := range n.withdrawals {
		if _, _, ok := n.store.get(w.id); ok {
			msgs[w.at] = nil
		}
	}
	kept := 0
	for i := range msgs {
		if msgs[i] != nil {
			msgs[kept], to[kept] = msgs[i], to[i]
			kept++
		}
	}
	start, size := 0, wire.BatchOverhead
	for i := 0; i < kept; i++ {
		ms := wire.BatchEntrySize(len(msgs[i]))
		if i > start && (to[i] != to[start] || size+ms > n.frameLimit || i-start >= wire.MaxBatchMessages) {
			n.sendLocked(to[start], msgs[start:i])
			start, size = i, wire.BatchOverhead
		}
		size += ms
	}
	if kept > 0 {
		n.sendLocked(to[start], msgs[start:kept])
	}
	clear(msgs)
	clear(to)
	clear(n.withdrawals)
	n.outbox, n.outTo, n.withdrawals = msgs[:0], to[:0], n.withdrawals[:0]
}

// sendLocked hands one run of staged messages to the transport, the
// only code that does (see flushLocked): bare when the run is one
// message, which peers without batching still read, else as a fresh
// batch frame (EncodeBatch copies, so staged cached bytes never alias
// it). An empty destination broadcasts to the one-hop neighborhood, any
// other unicasts. Bytes handed over are never written again.
func (n *Node) sendLocked(to tuple.NodeID, msgs [][]byte) {
	data := msgs[0]
	if len(msgs) > 1 {
		frame, err := wire.EncodeBatch(msgs)
		if err != nil {
			n.noteSendError("frame encode", err)
			return
		}
		n.stats.FramesOut.Add(1)
		data = frame
	}
	var err error
	if to == "" {
		n.stats.Broadcasts.Add(1)
		err = n.tr.Broadcast(data)
	} else {
		err = n.tr.Send(to, data)
	}
	if err != nil {
		n.noteSendError("send", err)
	}
}

// stageDirtyLocked stages the final state of every dirty row for
// broadcast: in full if its announcement changed since its last full
// broadcast, else as a digest entry, which carries value and parent at
// a fraction of the bytes. A row dropped, parked or retracted since it
// was marked sends nothing. It returns the rows staged in full and by
// digest.
func (n *Node) stageDirtyLocked() (full, digested int) {
	if len(n.dirty) == 0 {
		return 0, 0
	}
	s := n.scratchLocked()
	s.digest = s.digest[:0]
	for _, id := range n.dirty {
		st := n.states.lookup(id)
		if st == nil || !st.has(stDirty) {
			continue
		}
		st.unmark(stDirty)
		data, ok := n.storedWireLocked(st)
		if !ok {
			continue
		}
		if st.refreshedVer != st.ver {
			st.refreshedVer = st.ver
			n.traceSendLocked(st, "")
			n.stageDataLocked("", data)
			full++
			continue
		}
		e := wire.DigestEntry{ID: id, Ver: st.ver, Hop: clampHop(int(st.hop))}
		if m, ok := st.local.(tuple.Maintained); ok {
			e.Maintained = true
			e.Value = m.Value()
			e.Parent = st.parent
		}
		s.digest = append(s.digest, e)
		digested++
	}
	clear(n.dirty)
	n.dirty = n.dirty[:0]
	n.stageDigestsLocked(s.digest)
	return full, digested
}

// stageDigestsLocked encodes digest entries into one or more digest
// messages, each sized to fit the frame payload budget, and stages them
// for broadcast.
func (n *Node) stageDigestsLocked(entries []wire.DigestEntry) {
	if len(entries) == 0 {
		return
	}
	start, size := 0, wire.DigestOverhead
	for i := range entries {
		es := wire.DigestEntrySize(&entries[i])
		// A digest message must fit a batch frame as one of its entries.
		if i > start && (wire.BatchOverhead+wire.BatchEntrySize(size+es) > n.frameLimit || i-start >= wire.MaxDigestEntries) {
			n.stageDigestMsgLocked(entries[start:i])
			start, size = i, wire.DigestOverhead
		}
		size += es
	}
	n.stageDigestMsgLocked(entries[start:])
}

func (n *Node) stageDigestMsgLocked(entries []wire.DigestEntry) {
	if n.stageLocked("", wire.Message{Type: wire.MsgDigest, Digest: entries}) {
		n.stats.DigestsOut.Add(1)
	}
}

// storedWireLocked returns the wire bytes announcing the stored copy
// (hop and parent included), re-encoding only when the copy, its hop,
// or its parent changed since the last send. The returned slice is
// shared with the transport and every queued packet; it is never
// mutated.
func (n *Node) storedWireLocked(st *tupleState) ([]byte, bool) {
	if !st.has(stStored) || st.local == nil {
		return nil, false
	}
	hop := clampHop(int(st.hop))
	if st.encCache != nil && st.encHop == hop && st.encParent == st.parent {
		return st.encCache, true
	}
	// The announcement bytes are about to change: bump the version so
	// digests distinguish this announcement from every earlier one.
	st.ver++
	data, err := wire.Encode(wire.Message{
		Type:   wire.MsgTuple,
		Hop:    hop,
		Parent: st.parent,
		Ver:    st.ver,
		Tuple:  st.local,
		Trace:  st.traceCtx(),
	})
	if err != nil {
		n.noteSendError("announce encode", err)
		return nil, false
	}
	st.encCache, st.encHop, st.encParent = data, hop, st.parent
	return data, true
}

// putCopyLocked stores t as the node's copy at hop. The row and the
// store are written together here, so they always give one account of
// the copy; the cached announcement goes, since it names the old one.
func (n *Node) putCopyLocked(st *tupleState, t tuple.Tuple, hop int32) {
	st.mark(stStored)
	st.local = t
	st.encCache = nil
	st.hop = hop
	st.storedAt = n.now
	n.store.put(t, hop)
}

// announceLocked marks the node's stored copy of a structure dirty for
// the batch's flush, which announces the row's final state once,
// however often the batch changed it.
func (n *Node) announceLocked(st *tupleState) {
	if st.has(stDirty) || st.local == nil {
		return
	}
	st.mark(stDirty)
	n.dirty = append(n.dirty, st.local.ID())
}

func hopFromVal(val, step float64, fallback int) int {
	if step <= 0 {
		return fallback
	}
	h := int(val/step + 0.5)
	if h < 0 {
		return 0
	}
	return h
}

func clampHop(h int) uint16 {
	if h < 0 {
		return 0
	}
	if h > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(h)
}

// noteSendError counts a transport send (or encode) failure and emits
// a rate-limited structured log line. Send failures are expected in
// dynamic networks (a neighbor may vanish between the neighborhood
// snapshot and the transmission), so the engine never propagates them;
// the counter and log line keep them observable instead of silent.
// Logging fires at occurrence counts 1, 2, 4, 8, … so a flapping link
// cannot flood the log. A send on a closed transport is counted and
// not logged: it is a stopping node, not a fault.
func (n *Node) noteSendError(op string, err error) {
	c := n.stats.SendErrors.Add(1)
	if n.cfg.Logger != nil && isPowerOfTwo(c) && !errors.Is(err, transport.ErrClosed) {
		n.cfg.Logger.Warn("tota: transport send failed",
			"node", string(n.id), "op", op, "err", err, "count", c)
	}
}

// noteDecodeError counts an undecodable packet, or a carried tuple its
// kind's factory rejects, with the same power-of-two log rate limiting
// as noteSendError.
func (n *Node) noteDecodeError(from tuple.NodeID, err error) {
	c := n.stats.DecodeErrors.Add(1)
	if n.cfg.Logger != nil && isPowerOfTwo(c) {
		n.cfg.Logger.Warn("tota: undecodable packet dropped",
			"node", string(n.id), "from", string(from), "err", err, "count", c)
	}
}

func isPowerOfTwo(c int64) bool { return c > 0 && c&(c-1) == 0 }
