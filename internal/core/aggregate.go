package core

import (
	"sort"

	"tota/internal/agg"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// In-network aggregation: an agg.Query tuple propagates like any
// maintained gradient, and the parent link each stored copy keeps is
// reused as a convergecast tree edge. The engine adds the epoch clock
// on top of the refresh cycle:
//
//   - Each refresh, every source query increments its epoch and floods
//     a compact MsgQuery wave down the structure (each storing node
//     re-broadcasts it once per epoch, hop-bounded).
//   - Each refresh, every non-source storing node folds its local
//     matching tuples with the fresh partials staged from its children
//     and unicasts one MsgPartial up its parent link (collect-all mode
//     forwards one record per origin instead — the naive baseline).
//   - Child partials are overwrite-staged by (child, origin) key, so a
//     duplicated or re-propagated frame lands on the same slot and the
//     fold stays duplicate-insensitive for the exact aggregates;
//     CountDistinct additionally rides a bitwise-OR sketch that ignores
//     duplication entirely.
//   - A staged partial whose epoch falls more than staleEpochs plus the
//     suspicion grace window behind the node's current epoch is pruned:
//     a crashed child times out of the fold instead of stalling it.
//
// Results pipeline upward one hop per epoch (TAG-style), so the source
// converges after roughly depth epochs and every epoch thereafter
// reflects the network one refresh ago.

// aggKey identifies one staged child contribution: the child link it
// arrived on plus, in collect-all mode, the origin record it reports
// (zero origin in combining mode).
type aggKey struct {
	child  tuple.NodeID
	origin tuple.ID
}

// stagedPartial is a child's latest contribution and the epoch it was
// computed on.
type stagedPartial struct {
	epoch uint32
	p     agg.Partial
}

// queryState is the per-query convergecast bookkeeping at one node.
type queryState struct {
	// epoch is the newest epoch wave heard (at the source: the current
	// epoch, advanced locally on refresh).
	epoch uint32
	// staged holds the children's latest partials, overwrite-staged.
	staged map[aggKey]stagedPartial
	// keyScratch is the reusable sorted-fold key buffer.
	keyScratch []aggKey
	// result is the latest fold computed here (meaningful at sources,
	// where it is the query answer).
	result     agg.Result
	haveResult bool
}

// originRec is one collect-all record: a single origin's contribution.
type originRec struct {
	origin tuple.ID
	p      agg.Partial
}

// queryStateFor returns (allocating on first use) the convergecast
// state of one query.
func (n *Node) queryStateFor(id tuple.ID) *queryState {
	qs, ok := n.queries[id]
	if !ok {
		if n.queries == nil {
			n.queries = make(map[tuple.ID]*queryState)
		}
		qs = &queryState{}
		n.queries[id] = qs
	}
	return qs
}

// dropQueryStateLocked forgets a query's convergecast state (retraction
// or lease expiry tore the structure down).
func (n *Node) dropQueryStateLocked(id tuple.ID) {
	if n.queries != nil {
		delete(n.queries, id)
	}
}

// aggQueryOf returns the locally known query tuple behind a seen id, if
// any: the stored copy, or the retained exemplar after a withdrawal.
// Gating on it bounds query state to ids that verifiably are queries —
// a hostile wave naming an arbitrary id allocates nothing.
func aggQueryOf(st *tupleState) (*agg.Query, bool) {
	if q, ok := st.local.(*agg.Query); ok {
		return q, true
	}
	if q, ok := st.exemplar.(*agg.Query); ok {
		return q, true
	}
	return nil, false
}

// handleQueryLocked processes an epoch wave: adopt a newer epoch and
// re-broadcast the wave once, hop-bounded, if this node carries the
// query structure.
func (n *Node) handleQueryLocked(from tuple.NodeID, msg *wire.Message) {
	n.stats.QueriesIn.Add(1)
	st := n.states.lookup(msg.ID)
	if st == nil {
		return
	}
	if _, isQ := aggQueryOf(st); !isQ {
		return
	}
	qs := n.queryStateFor(msg.ID)
	if msg.Epoch <= qs.epoch {
		return
	}
	qs.epoch = msg.Epoch
	if !st.has(stStored) || st.has(stSource) {
		return
	}
	hop := int(msg.Hop) + 1
	if hop > n.cfg.MaxHops {
		return
	}
	n.sendMsgLocked("", wire.Message{
		Type: wire.MsgQuery, ID: msg.ID, Epoch: msg.Epoch, Hop: clampHop(hop),
	})
}

// handlePartialLocked overwrite-stages a child's contribution. Staging
// is keyed (child, origin), so the duplication and re-delivery the
// fault layer injects cannot double-count: a repeated frame lands on
// the slot its original already occupies.
func (n *Node) handlePartialLocked(from tuple.NodeID, msg *wire.Message) {
	n.stats.PartialsIn.Add(1)
	st := n.states.lookup(msg.ID)
	if st == nil {
		return
	}
	if _, isQ := aggQueryOf(st); !isQ {
		return
	}
	qs := n.queryStateFor(msg.ID)
	if msg.Epoch+aggStaleLimit < qs.epoch {
		return
	}
	if qs.staged == nil {
		qs.staged = make(map[aggKey]stagedPartial)
	}
	qs.staged[aggKey{child: from, origin: msg.Origin}] = stagedPartial{epoch: msg.Epoch, p: msg.Partial}
}

// aggStaleLimit is the staged-partial freshness horizon in epochs:
// anti-entropy staleness plus the suspicion grace window, so a child
// that merely lost a few frames survives the fold exactly as long as
// its maintained copy survives suspicion, and a crashed child times out
// right after its copies would be withdrawn.
const aggStaleLimit = staleEpochs + suspicionEpochs

// aggStageWavesLocked runs the source side of the epoch clock during
// refresh: advance each stored source query's epoch, stage its wave
// into the refresh broadcast flush, and fold the children's partials
// into this epoch's result. Queries are walked in sorted id order so
// floating-point folds are identical across runs and worker counts.
func (n *Node) aggStageWavesLocked() {
	if len(n.aggScratch) == 0 {
		return
	}
	sortTupleIDs(n.aggScratch)
	for _, id := range n.aggScratch {
		st := n.states.lookup(id)
		if st == nil || !st.has(stStored) || !st.has(stSource) {
			continue
		}
		q, ok := st.local.(*agg.Query)
		if !ok {
			continue
		}
		qs := n.queryStateFor(id)
		qs.epoch++
		n.stats.QueryEpochs.Add(1)
		data, err := wire.Encode(wire.Message{Type: wire.MsgQuery, ID: id, Epoch: qs.epoch})
		if err != nil {
			n.noteSendError("query encode", err)
		} else {
			n.stageMsgs = append(n.stageMsgs, data)
		}
		p := n.aggFoldLocked(q, qs)
		qs.result = agg.Result{Op: q.Op, Epoch: qs.epoch, Partial: p}
		qs.haveResult = true
		n.stats.AggResults.Add(1)
		n.traceLocked(TraceEvent{
			Kind: TraceAggResult, ID: id, TupleKind: agg.KindQuery,
			Hop: int(qs.epoch), Value: p.Value(q.Op),
		})
	}
}

// aggFlushPartialsLocked runs the convergecast side of the epoch clock
// during refresh: every stored non-source query with a parent link
// sends its contribution up that link — one combined partial, or one
// record per origin in collect-all mode.
func (n *Node) aggFlushPartialsLocked() {
	for _, id := range n.aggScratch {
		st := n.states.lookup(id)
		if st == nil || !st.has(stStored) || st.has(stSource) || st.parent == "" {
			continue
		}
		q, ok := st.local.(*agg.Query)
		if !ok {
			continue
		}
		qs := n.queryStateFor(id)
		if qs.epoch == 0 {
			// No wave has reached this node yet; partials would carry no
			// usable epoch.
			continue
		}
		if q.Collect {
			for _, r := range n.aggCollectRecsLocked(q, qs) {
				n.stageAggPartialLocked(id, qs.epoch, r.origin, r.p)
			}
		} else {
			n.stageAggPartialLocked(id, qs.epoch, tuple.ID{}, n.aggFoldLocked(q, qs))
		}
		n.flushStagedLocked(st.parent)
	}
}

func (n *Node) stageAggPartialLocked(id tuple.ID, epoch uint32, origin tuple.ID, p agg.Partial) {
	data, err := wire.Encode(wire.Message{
		Type: wire.MsgPartial, ID: id, Epoch: epoch, Origin: origin, Partial: p,
	})
	if err != nil {
		n.noteSendError("partial encode", err)
		return
	}
	n.stats.PartialsOut.Add(1)
	n.stageMsgs = append(n.stageMsgs, data)
}

// aggFoldLocked combines the local matching tuples with the fresh
// staged child partials into one partial — the node's whole-subtree
// summary (and, at the source, the query answer).
func (n *Node) aggFoldLocked(q *agg.Query, qs *queryState) agg.Partial {
	p := agg.NewPartial()
	if q.Collect {
		for _, r := range n.aggCollectRecsLocked(q, qs) {
			p.Combine(r.p)
			n.stats.PartialsCombined.Add(1)
		}
		return p
	}
	n.aggLocalLocked(q, func(_ tuple.ID, v float64) {
		p.Observe(q.Op, v)
	})
	for _, k := range n.aggFreshKeysLocked(qs) {
		p.Combine(qs.staged[k].p)
		n.stats.PartialsCombined.Add(1)
	}
	return p
}

// aggLocalLocked visits every locally stored tuple in the query's
// range. The query's own structure copy never matches itself.
func (n *Node) aggLocalLocked(q *agg.Query, each func(origin tuple.ID, v float64)) {
	for _, t := range n.store.readRaw(q.Sel.Template()) {
		if t.ID() == q.ID() {
			continue
		}
		v, ok := q.Sel.Sample(t)
		if !ok {
			continue
		}
		each(t.ID(), v)
	}
}

// aggFreshKeysLocked prunes staged entries past the staleness horizon
// (their child crashed, departed, or re-parented elsewhere) and returns
// the surviving keys sorted by (child, origin), fixing the fold order.
func (n *Node) aggFreshKeysLocked(qs *queryState) []aggKey {
	keys := qs.keyScratch[:0]
	for k, sp := range qs.staged {
		if sp.epoch+aggStaleLimit < qs.epoch {
			delete(qs.staged, k)
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].child != keys[j].child {
			return keys[i].child < keys[j].child
		}
		if keys[i].origin.Node != keys[j].origin.Node {
			return keys[i].origin.Node < keys[j].origin.Node
		}
		return keys[i].origin.Seq < keys[j].origin.Seq
	})
	qs.keyScratch = keys
	return keys
}

// aggCollectRecsLocked builds the collect-all record set: every local
// matching tuple as a single-sample record under its own id, plus every
// fresh record relayed by children, deduplicated by origin (sorted key
// order makes the dedup winner deterministic) and returned sorted.
func (n *Node) aggCollectRecsLocked(q *agg.Query, qs *queryState) []originRec {
	byOrigin := make(map[tuple.ID]agg.Partial)
	n.aggLocalLocked(q, func(origin tuple.ID, v float64) {
		p := agg.NewPartial()
		p.Observe(q.Op, v)
		byOrigin[origin] = p
	})
	for _, k := range n.aggFreshKeysLocked(qs) {
		if k.origin.IsZero() {
			continue // combining-mode leftovers from a mode change
		}
		byOrigin[k.origin] = qs.staged[k].p
	}
	recs := make([]originRec, 0, len(byOrigin))
	for o, p := range byOrigin {
		recs = append(recs, originRec{origin: o, p: p})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].origin.Node != recs[j].origin.Node {
			return recs[i].origin.Node < recs[j].origin.Node
		}
		return recs[i].origin.Seq < recs[j].origin.Seq
	})
	return recs
}

// aggForgetChildLocked drops every staged contribution from a departed
// neighbor: its subtree re-parents elsewhere and re-reports there, so
// keeping the stale slot would double-count until the staleness horizon.
func (n *Node) aggForgetChildLocked(peer tuple.NodeID) {
	for _, qs := range n.queries {
		for k := range qs.staged {
			if k.child == peer {
				delete(qs.staged, k)
			}
		}
	}
}

func sortTupleIDs(ids []tuple.ID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Node != ids[j].Node {
			return ids[i].Node < ids[j].Node
		}
		return ids[i].Seq < ids[j].Seq
	})
}

// AggResult returns the latest convergecast result computed at this
// node for the given query. Sources compute one per refresh epoch; the
// answer converges after roughly one epoch per tree level and from then
// on tracks the network with one refresh of lag.
func (n *Node) AggResult(id tuple.ID) (agg.Result, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	qs, ok := n.queries[id]
	if !ok || !qs.haveResult {
		return agg.Result{}, false
	}
	return qs.result, true
}
