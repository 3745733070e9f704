package core

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"tota/internal/tuple"
)

// stateTable is the engine's per-tuple bookkeeping arena: a slab of
// tupleState values indexed by a dense int32 handle, with the id→handle
// map kept only at the boundary. Compared to the map[ID]*tupleState it
// replaced, the slab stores states by value in contiguous chunks, so
// the refresh and digest loops walk packed memory instead of chasing
// one heap pointer per tuple, and a node tracking N tuples costs one
// map entry plus N/chunk slab headers instead of N separate allocations.
//
// Chunks grow geometrically (chunk k holds 1<<k states, so the first
// tuple costs exactly one state and a 1k-tuple node needs 10 chunks),
// and handles, and therefore *tupleState pointers handed out by lookup
// and intern, stay valid for the lifetime of the table: growing appends
// a new chunk and never moves existing states. Handles released back to
// the free list are recycled by the next intern.
//
// Like the tuple space (see store.go), the boundary map is lazy: tables
// of at most stateSmallMax entries resolve ids by scanning the dense
// ids column — at emulation scale almost every node tracks a handful of
// tuples and never allocates the map at all.
//
// A row that only records "seen here", or that and a stored copy the
// store already holds, leaves the slab (see park), and so does a
// retracted or expired one (see bury). An id is in at most one of the
// slab, parked and retracted; a parked id's copy, if any, is in the
// store, which is then the copy's only record.
type stateTable struct {
	byID   map[tuple.ID]int32 // nil in small mode
	chunks [][]tupleState
	// ids maps handle → id, so slab-order walks recover the key without
	// touching the map. Freed slots hold the zero id, which handleOf
	// never resolves: Inject never assigns it, and the engine drops
	// messages naming it before they reach the table.
	ids  []tuple.ID
	free []int32
	live int
	// parked is park's exact seen set; retracted is bury's tombstone set.
	parked, retracted runSet
}

// stateSmallMax is the largest table kept without the id→handle map;
// beyond it lookups promote to hashed access. The threshold depends
// only on the table's content, so promotion is deterministic.
const stateSmallMax = 16

// stateChunkFor locates handle h: the chunk index and the slot within
// it. Chunk k spans handles [2^k-1, 2^(k+1)-1).
func stateChunkFor(h int32) (chunk, slot int32) {
	k := int32(bits.Len32(uint32(h)+1)) - 1
	return k, h + 1 - 1<<k
}

func (tab *stateTable) len() int { return tab.live }

// handleOf resolves an id to its live handle: a hash lookup in big
// mode, a linear scan over the dense ids column in small mode. The zero
// id, which marks freed slots, resolves to nothing.
func (tab *stateTable) handleOf(id tuple.ID) (int32, bool) {
	if tab.byID != nil {
		h, ok := tab.byID[id]
		return h, ok
	}
	if id.IsZero() {
		return 0, false
	}
	for h := range tab.ids {
		if tab.ids[h] == id {
			return int32(h), true
		}
	}
	return 0, false
}

// lookup returns the state tracked for id, or nil. It is nil for a
// parked or buried id too: a visited-only row holds nothing its
// read-only callers act on, so the id stays parked. The pointer stays
// valid until the entry is released.
func (tab *stateTable) lookup(id tuple.ID) *tupleState {
	h, ok := tab.handleOf(id)
	if !ok {
		return nil
	}
	return tab.at(h)
}

// at returns the state behind a live handle.
func (tab *stateTable) at(h int32) *tupleState {
	c, s := stateChunkFor(h)
	return &tab.chunks[c][s]
}

// intern returns the state tracked for id, allocating a zero state on
// first sight — recycling a freed slot when one exists, extending the
// slab otherwise — or, for a parked id, a visited-only row, reporting
// unparked so the caller can restore a stored copy from the store (see
// Node.stateFor). A buried id gets no row: intern returns nil. id must
// not be zero.
func (tab *stateTable) intern(id tuple.ID) (st *tupleState, unparked bool) {
	if h, ok := tab.handleOf(id); ok {
		return tab.at(h), false
	}
	if tab.retracted.has(id) {
		return nil, false
	}
	var h int32
	if n := len(tab.free); n > 0 {
		h = tab.free[n-1]
		tab.free = tab.free[:n-1]
	} else {
		h = int32(len(tab.ids))
		if c, _ := stateChunkFor(h); int(c) == len(tab.chunks) {
			tab.chunks = append(tab.chunks, make([]tupleState, 1<<c))
		}
		tab.ids = append(tab.ids, tuple.ID{})
	}
	tab.ids[h] = id
	tab.live++
	if tab.byID == nil && len(tab.ids) > stateSmallMax {
		// Promote: hash every live slot, including the new one.
		tab.byID = make(map[tuple.ID]int32, len(tab.ids)*2)
		for i := range tab.ids {
			if !tab.ids[i].IsZero() {
				tab.byID[tab.ids[i]] = int32(i)
			}
		}
	} else if tab.byID != nil {
		tab.byID[id] = h
	}
	st = tab.at(h)
	if tab.parked.remove(id) {
		st.flags, unparked = stVisited, true
	}
	return st, unparked
}

// release forgets id's state, zeroing the slot and recycling its handle.
// park is the engine's caller: a relay parks one row per message it
// forwards, and the free list hands the slot to the next message.
func (tab *stateTable) release(id tuple.ID) {
	h, ok := tab.handleOf(id)
	if !ok {
		return
	}
	if tab.byID != nil {
		delete(tab.byID, id)
	}
	*tab.at(h) = tupleState{}
	tab.ids[h] = tuple.ID{}
	tab.free = append(tab.free, h)
	tab.live--
}

// park releases t's row when the seen set and the store can stand in
// for it, and files its id in the seen set, so every later intern sees
// the row parked. Two rows qualify: one holding only the visited mark —
// plus the source and propagated marks, which only stored or maintained
// code reads — and one holding only the visited, source and stored marks
// and a copy without a lease that s holds at the row's hop, which no
// refresh, catch-up or sweep reads; Node.stateFor restores the second
// from s. A maintained tuple keeps its row: at a source that stores no
// copy, the source mark is what keeps maintenance from adopting the
// structure back from a neighbor.
func (tab *stateTable) park(t tuple.Tuple, s *store) {
	if _, ok := t.(tuple.Maintained); !ok {
		tab.parkPlain(t.ID(), s)
	}
}

// parkPlain is park for an id known to name a plain tuple.
func (tab *stateTable) parkPlain(id tuple.ID, s *store) {
	h, ok := tab.handleOf(id)
	if !ok {
		return
	}
	st := tab.at(h)
	marks := stVisited | stSource | stPropagated
	if st.has(stStored) {
		marks = stVisited | stSource | stStored
	}
	if st.flags&stVisited == 0 || st.flags&^marks != 0 || st.has(stStored) != (st.local != nil) ||
		st.exemplar != nil || st.encCache != nil || len(st.peers) != 0 ||
		st.traceID != 0 || st.span != 0 || st.parentSpan != 0 || st.ver != 0 || st.parent != "" {
		return
	}
	if st.has(stStored) {
		e, leased := st.local.(tuple.Expiring)
		if c, hop, ok := s.get(id); !ok || c != st.local || hop != st.hop || leased && e.Lease() > 0 {
			return
		}
	}
	tab.release(id)
	tab.parked.add(id)
}

// bury ends id's life at this node: its row or parked mark gives way to
// a tombstone in the retracted set. A tombstone is one bit per id and
// the set keeps it exactly, so no late copy can bring the id back.
func (tab *stateTable) bury(id tuple.ID) {
	tab.release(id)
	tab.parked.remove(id)
	tab.retracted.add(id)
}

// forEach visits every live entry in slab (handle) order — insertion
// order when no handle was ever recycled. The order is deterministic
// for a deterministic call sequence, unlike a map range; callers that
// feed wire output still sort explicitly, keeping determinism
// independent of release patterns.
func (tab *stateTable) forEach(fn func(id tuple.ID, st *tupleState)) {
	for h := range tab.ids {
		if tab.ids[h].IsZero() {
			continue
		}
		c, s := stateChunkFor(int32(h))
		fn(tab.ids[h], &tab.chunks[c][s])
	}
}

// runSet is an exact set of ids: disjoint closed seq runs sorted by
// source, then seq, no two of one source touching. A source numbers its
// tuples 1, 2, 3, … (§4.1), so ids filed in order hold one run a source,
// all sources in one slice.
type runSet []idRun

type idRun struct {
	node   tuple.NodeID
	lo, hi uint64
}

// find returns the index of the first run that does not sort before id
// — a run of a later source, or one of id's source ending at or after
// its seq — and whether that run holds id.
func (s runSet) find(id tuple.ID) (int, bool) {
	i, _ := slices.BinarySearchFunc(s, id, func(r idRun, id tuple.ID) int {
		if c := strings.Compare(string(r.node), string(id.Node)); c != 0 {
			return c
		}
		return cmp.Compare(r.hi, id.Seq)
	})
	return i, i < len(s) && s[i].node == id.Node && s[i].lo <= id.Seq
}

func (s runSet) has(id tuple.ID) bool {
	_, ok := s.find(id)
	return ok
}

// add inserts id, merging it with the runs of its source it touches.
func (s *runSet) add(id tuple.ID) {
	r := *s
	i, ok := r.find(id)
	if ok {
		return
	}
	left := i > 0 && r[i-1].node == id.Node && r[i-1].hi+1 == id.Seq
	right := i < len(r) && r[i].node == id.Node && r[i].lo == id.Seq+1
	switch {
	case left && right:
		r[i-1].hi = r[i].hi
		*s = slices.Delete(r, i, i+1)
	case left:
		r[i-1].hi = id.Seq
	case right:
		r[i].lo = id.Seq
	default:
		s.insert(i, idRun{id.Node, id.Seq, id.Seq})
	}
}

// remove deletes id, reporting whether it was present.
func (s *runSet) remove(id tuple.ID) bool {
	r := *s
	i, ok := r.find(id)
	if !ok {
		return false
	}
	switch run := r[i]; {
	case run.lo == run.hi:
		*s = slices.Delete(r, i, i+1)
	case run.lo == id.Seq:
		r[i].lo++
	case run.hi == id.Seq:
		r[i].hi--
	default:
		r[i].hi = id.Seq - 1
		s.insert(i+1, idRun{id.Node, id.Seq + 1, run.hi})
	}
	return true
}

// insert puts run at index i. A full slice grows by an eighth plus one,
// not append's doubling: a set gains a run only when a source opens a
// gap, so the small sets most nodes keep stay exactly sized.
func (s *runSet) insert(i int, run idRun) {
	if n := len(*s); n == cap(*s) {
		*s = append(make(runSet, 0, n+n/8+1), *s...)
	}
	*s = slices.Insert(*s, i, run)
}
