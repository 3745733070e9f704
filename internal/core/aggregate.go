package core

import (
	"sort"

	"tota/internal/agg"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// In-network aggregation: an agg.Query tuple propagates like any
// maintained gradient, and the convergecast runs on that structure's
// own clock and tree instead of keeping copies of them:
//
//   - The clock is the refresh epoch. Each refresh, every non-source
//     storing node folds its local matching tuples with the fresh
//     partials staged from its children and unicasts one MsgPartial up
//     its parent link (collect-all mode forwards one record per origin
//     instead — the naive baseline), and every source folds its
//     children's partials into that epoch's result.
//   - The tree is the support table. A child's partial is staged, and
//     later folded, only while the query's support row for that child
//     names this node as its parent: a re-parented child leaves the fold
//     as soon as its new parent is heard, a departed one when its row is
//     dropped with the neighbor.
//   - Child partials are overwrite-staged by (child, origin) key, so a
//     duplicated or re-propagated frame lands on the same slot and the
//     fold stays duplicate-insensitive for the exact aggregates;
//     CountDistinct additionally rides a bitwise-OR sketch that ignores
//     duplication entirely.
//   - A staged partial is stamped with the receiver's refresh epoch, as
//     a support row is, and pruned aggStaleLimit epochs later: a crashed
//     child times out of the fold instead of stalling it.
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

// stagedPartial is a child's latest contribution and the local refresh
// epoch it arrived in.
type stagedPartial struct {
	epoch uint32
	p     agg.Partial
}

// queryState is the per-query convergecast bookkeeping at one node.
type queryState struct {
	// epoch numbers the source's results; other nodes leave it zero.
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
// a hostile partial naming an arbitrary id allocates nothing.
func aggQueryOf(st *tupleState) (*agg.Query, bool) {
	if q, ok := st.local.(*agg.Query); ok {
		return q, true
	}
	if q, ok := st.exemplar.(*agg.Query); ok {
		return q, true
	}
	return nil, false
}

// aggChild reports whether child is this node's convergecast child in
// the structure st: its support row exists and names this node as its
// parent.
func (n *Node) aggChild(st *tupleState, child tuple.NodeID) bool {
	p := st.peer(child)
	return p != nil && p.parent == n.id
}

// handlePartialLocked overwrite-stages a child's contribution. Staging
// is keyed (child, origin), so the duplication and re-delivery the
// fault layer injects cannot double-count: a repeated frame lands on
// the slot its original already occupies.
func (n *Node) handlePartialLocked(from tuple.NodeID, msg *wire.Message) {
	n.stats.PartialsIn.Add(1)
	st := n.states.lookup(msg.ID)
	if st == nil || !n.aggChild(st, from) {
		return
	}
	if _, isQ := aggQueryOf(st); !isQ {
		return
	}
	qs := n.queryStateFor(msg.ID)
	if qs.staged == nil {
		qs.staged = make(map[aggKey]stagedPartial)
	}
	qs.staged[aggKey{child: from, origin: msg.Origin}] = stagedPartial{epoch: uint32(n.epoch), p: msg.Partial}
}

// aggStaleLimit is the staged-partial freshness horizon in epochs:
// anti-entropy staleness plus the suspicion grace window, so a child
// that merely lost a few frames survives the fold exactly as long as
// its maintained copy survives suspicion, and a crashed child times out
// right after its copies would be withdrawn.
const aggStaleLimit = staleEpochs + suspicionEpochs

// aggEpochLocked runs the convergecast step of one refresh epoch: every
// stored source query folds its children's partials into the epoch's
// result, and every other stored query with a parent link sends its
// contribution up that link — one combined partial, or one record per
// origin in collect-all mode. Queries are walked in sorted id order so
// floating-point folds are identical across runs and worker counts.
func (n *Node) aggEpochLocked() {
	if len(n.aggScratch) == 0 {
		return
	}
	sortTupleIDs(n.aggScratch)
	for _, id := range n.aggScratch {
		st := n.states.lookup(id)
		if st == nil || !st.has(stStored) {
			continue
		}
		q, ok := st.local.(*agg.Query)
		if !ok {
			continue
		}
		qs := n.queryStateFor(id)
		switch {
		case st.has(stSource):
			qs.epoch++
			n.stats.QueryEpochs.Add(1)
			p := n.aggFoldLocked(q, st, qs)
			qs.result = agg.Result{Op: q.Op, Epoch: qs.epoch, Partial: p}
			qs.haveResult = true
			n.stats.AggResults.Add(1)
			n.traceLocked(TraceEvent{
				Kind: TraceAggResult, ID: id, TupleKind: agg.KindQuery,
				Hop: int(qs.epoch), Value: p.Value(q.Op),
			})
		case st.parent != "":
			if q.Collect {
				for _, r := range n.aggCollectRecsLocked(q, st, qs) {
					n.stageAggPartialLocked(st.parent, id, r.origin, r.p)
				}
			} else {
				n.stageAggPartialLocked(st.parent, id, tuple.ID{}, n.aggFoldLocked(q, st, qs))
			}
		}
	}
}

func (n *Node) stageAggPartialLocked(to tuple.NodeID, id, origin tuple.ID, p agg.Partial) {
	if n.stageLocked(to, wire.Message{Type: wire.MsgPartial, ID: id, Origin: origin, Partial: p}) {
		n.stats.PartialsOut.Add(1)
	}
}

// aggFoldLocked combines the local matching tuples with the fresh
// staged child partials into one partial — the node's whole-subtree
// summary (and, at the source, the query answer).
func (n *Node) aggFoldLocked(q *agg.Query, st *tupleState, qs *queryState) agg.Partial {
	p := agg.NewPartial()
	if q.Collect {
		for _, r := range n.aggCollectRecsLocked(q, st, qs) {
			p.Combine(r.p)
			n.stats.PartialsCombined.Add(1)
		}
		return p
	}
	n.aggLocalLocked(q, func(_ tuple.ID, v float64) {
		p.Observe(q.Op, v)
	})
	for _, k := range n.aggFreshKeysLocked(st, qs) {
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
// (their child crashed or went silent) or from a neighbor that is no
// longer this node's child in st (it re-parented elsewhere or departed),
// and returns the surviving keys sorted by (child, origin), fixing the
// fold order.
func (n *Node) aggFreshKeysLocked(st *tupleState, qs *queryState) []aggKey {
	keys := qs.keyScratch[:0]
	for k, sp := range qs.staged {
		if sp.epoch+aggStaleLimit < uint32(n.epoch) || !n.aggChild(st, k.child) {
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
func (n *Node) aggCollectRecsLocked(q *agg.Query, st *tupleState, qs *queryState) []originRec {
	byOrigin := make(map[tuple.ID]agg.Partial)
	n.aggLocalLocked(q, func(origin tuple.ID, v float64) {
		p := agg.NewPartial()
		p.Observe(q.Op, v)
		byOrigin[origin] = p
	})
	for _, k := range n.aggFreshKeysLocked(st, qs) {
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
