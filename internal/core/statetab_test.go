package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

func stID(i int) tuple.ID { return tuple.ID{Node: "n", Seq: uint64(i + 1)} }

// TestStateChunkFor pins the slab geometry: chunk k holds 1<<k states
// and handles map to (chunk, slot) without gaps or overlaps.
// TestTupleStateSize pins a row at 168 B on 64-bit platforms. Every
// byte is paid once per tuple per node, so new per-row state goes into
// the flag bits or the padding byte after flags, not onto the end.
func TestTupleStateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(tupleState{}); got != 168 {
		t.Errorf("tupleState is %d B, want 168", got)
	}
}

func TestStateChunkFor(t *testing.T) {
	var h int32
	for k := int32(0); k < 6; k++ {
		for s := int32(0); s < 1<<k; s++ {
			gc, gs := stateChunkFor(h)
			if gc != k || gs != s {
				t.Fatalf("stateChunkFor(%d) = (%d, %d), want (%d, %d)", h, gc, gs, k, s)
			}
			h++
		}
	}
}

// TestStateTablePointerStability checks the core slab contract: a
// *tupleState returned by intern stays valid (same address, same
// contents) across arbitrary growth, because chunks append and never
// move.
func TestStateTablePointerStability(t *testing.T) {
	var tab stateTable
	first, _ := tab.intern(stID(0))
	first.hop = 42
	for i := 1; i < 200; i++ {
		st, _ := tab.intern(stID(i))
		st.hop = int32(i)
	}
	if again := tab.lookup(stID(0)); again != first || again.hop != 42 {
		t.Fatalf("state 0 moved or lost: %p vs %p, hop=%d", again, first, first.hop)
	}
	for i := 1; i < 200; i++ {
		if st := tab.lookup(stID(i)); st == nil || st.hop != int32(i) {
			t.Fatalf("state %d lost after growth", i)
		}
	}
	if tab.len() != 200 {
		t.Errorf("len = %d", tab.len())
	}
}

// TestStateTableSmallModePromotion checks the lazy boundary map: small
// tables never allocate it, crossing stateSmallMax promotes exactly
// once, and lookups agree before and after.
func TestStateTableSmallModePromotion(t *testing.T) {
	var tab stateTable
	for i := 0; i < stateSmallMax; i++ {
		tab.intern(stID(i))
	}
	if tab.byID != nil {
		t.Fatalf("map allocated for %d entries (small max %d)", tab.len(), stateSmallMax)
	}
	tab.intern(stID(stateSmallMax))
	if tab.byID == nil {
		t.Fatal("map not built past the small threshold")
	}
	if len(tab.byID) != stateSmallMax+1 {
		t.Errorf("promoted map has %d entries, want %d", len(tab.byID), stateSmallMax+1)
	}
	for i := 0; i <= stateSmallMax; i++ {
		if tab.lookup(stID(i)) == nil {
			t.Fatalf("id %d lost across promotion", i)
		}
	}
	if tab.lookup(tuple.ID{Node: "x", Seq: 1}) != nil {
		t.Error("lookup invented a state")
	}
}

// TestStateTableReleaseRecycles checks the free list: released handles
// are reused by later interns, forEach skips freed slots, and a
// release/intern churn never grows the slab.
func TestStateTableReleaseRecycles(t *testing.T) {
	var tab stateTable
	for i := 0; i < 24; i++ {
		tab.intern(stID(i))
	}
	slots := len(tab.ids)
	for i := 0; i < 24; i += 2 {
		tab.release(stID(i))
	}
	if tab.len() != 12 {
		t.Fatalf("len after release = %d", tab.len())
	}
	seen := make(map[tuple.ID]bool)
	tab.forEach(func(id tuple.ID, st *tupleState) { seen[id] = true })
	if len(seen) != 12 {
		t.Fatalf("forEach visited %d entries, want 12", len(seen))
	}
	for i := 0; i < 24; i += 2 {
		if seen[stID(i)] {
			t.Fatalf("forEach visited released id %d", i)
		}
	}
	for i := 100; i < 112; i++ {
		tab.intern(stID(i))
	}
	if len(tab.ids) != slots {
		t.Errorf("slab grew to %d slots despite %d free handles", len(tab.ids), 12)
	}
	// Releasing an unknown id is a no-op.
	tab.release(tuple.ID{Node: "x", Seq: 9})
	if tab.len() != 24 {
		t.Errorf("len = %d after no-op release", tab.len())
	}
}

// TestStateTableSmallScanMatchesMap cross-checks small-mode linear
// resolution against big-mode hashing over the same operation sequence.
func TestStateTableSmallScanMatchesMap(t *testing.T) {
	var small, big stateTable
	for i := 0; i < stateSmallMax*4; i++ {
		big.intern(stID(i))
	}
	for i := 0; i < stateSmallMax/2; i++ {
		small.intern(stID(i))
	}
	for i := 0; i < stateSmallMax; i++ {
		wantSmall := i < stateSmallMax/2
		if got := small.lookup(stID(i)) != nil; got != wantSmall {
			t.Errorf("small lookup(%d) = %v, want %v", i, got, wantSmall)
		}
		if big.lookup(stID(i)) == nil {
			t.Errorf("big lookup(%d) = nil", i)
		}
	}
}

func BenchmarkStateTableIntern(b *testing.B) {
	ids := make([]tuple.ID, 64)
	for i := range ids {
		ids[i] = tuple.ID{Node: tuple.NodeID(fmt.Sprintf("n%03d", i)), Seq: uint64(i)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tab stateTable
		for _, id := range ids {
			tab.intern(id)
		}
	}
}

// runSetErr reports a break in r's invariants: runs sorted by source,
// then seq, none inverted, and two runs of one source neither
// overlapping nor touching.
func runSetErr(r runSet) error {
	for i, run := range r {
		if run.lo > run.hi {
			return fmt.Errorf("run %d = %v is inverted: %v", i, run, r)
		}
		if i == 0 {
			continue
		}
		prev := r[i-1]
		if prev.node > run.node || prev.node == run.node && (prev.hi >= run.lo || run.lo-prev.hi == 1) {
			return fmt.Errorf("runs %d and %d are out of order, overlap or touch: %v", i-1, i, r)
		}
	}
	return nil
}

// checkRunSet fails unless r keeps its invariants and holds exactly the
// ids ref marks true.
func checkRunSet(t *testing.T, r runSet, ref map[tuple.ID]bool) {
	t.Helper()
	if err := runSetErr(r); err != nil {
		t.Fatal(err)
	}
	n, want := 0, 0
	for _, run := range r {
		n += int(run.hi - run.lo + 1)
	}
	for id, in := range ref {
		if in {
			want++
		}
		if r.has(id) != in {
			t.Fatalf("has(%v) = %v, reference %v: %v", id, !in, in, r)
		}
	}
	if n != want {
		t.Fatalf("runs cover %d ids, reference holds %d: %v", n, want, r)
	}
}

// seqs returns the ids node numbered seq, in order.
func seqs(node tuple.NodeID, seq ...uint64) []tuple.ID {
	ids := make([]tuple.ID, len(seq))
	for i, q := range seq {
		ids[i] = tuple.ID{Node: node, Seq: q}
	}
	return ids
}

// TestSeenRuns pins runSet's merge and split cases, within one source
// and across sources whose seqs meet.
func TestSeenRuns(t *testing.T) {
	tests := []struct {
		name   string
		add    []tuple.ID
		remove []tuple.ID
		want   runSet
	}{
		{name: "empty"},
		{name: "in order is one run", add: seqs("a", 1, 2, 3, 4), want: runSet{{"a", 1, 4}}},
		{name: "reverse order is one run", add: seqs("a", 4, 3, 2, 1), want: runSet{{"a", 1, 4}}},
		{name: "gap", add: seqs("a", 1, 2, 5, 6), want: runSet{{"a", 1, 2}, {"a", 5, 6}}},
		{name: "filling a gap merges", add: seqs("a", 1, 3, 2), want: runSet{{"a", 1, 3}}},
		{name: "duplicates", add: seqs("a", 7, 7, 8, 7), want: runSet{{"a", 7, 8}}},
		{name: "insert before all", add: seqs("a", 9, 5), want: runSet{{"a", 5, 5}, {"a", 9, 9}}},
		{name: "extremes", add: seqs("a", 0, math.MaxUint64, math.MaxUint64-1), want: runSet{{"a", 0, 0}, {"a", math.MaxUint64 - 1, math.MaxUint64}}},
		{name: "remove splits", add: seqs("a", 1, 2, 3, 4, 5), remove: seqs("a", 3), want: runSet{{"a", 1, 2}, {"a", 4, 5}}},
		{name: "remove ends", add: seqs("a", 1, 2, 3), remove: seqs("a", 1, 3), want: runSet{{"a", 2, 2}}},
		{name: "remove singleton", add: seqs("a", 1, 5), remove: seqs("a", 5), want: runSet{{"a", 1, 1}}},
		{name: "remove absent", add: seqs("a", 1, 2), remove: seqs("a", 3, 0), want: runSet{{"a", 1, 2}}},
		{
			name: "sources never merge",
			add:  slices.Concat(seqs("b", 6), seqs("a", 4, 5), seqs("b", 7), seqs("c", 8), seqs("ab", 6), seqs("a", 6)),
			want: runSet{{"a", 4, 6}, {"ab", 6, 6}, {"b", 6, 7}, {"c", 8, 8}},
		},
		{
			name:   "remove is per source",
			add:    slices.Concat(seqs("a", 1, 2, 3), seqs("b", 1, 2, 3)),
			remove: slices.Concat(seqs("b", 2), seqs("c", 2), seqs("a", 4)),
			want:   runSet{{"a", 1, 3}, {"b", 1, 1}, {"b", 3, 3}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var r runSet
			ref := make(map[tuple.ID]bool)
			for _, id := range tt.add {
				r.add(id)
				ref[id] = true
			}
			for _, id := range tt.remove {
				if got := r.remove(id); got != ref[id] {
					t.Errorf("remove(%v) = %v, want %v", id, got, ref[id])
				}
				ref[id] = false
			}
			if !slices.Equal(r, tt.want) {
				t.Fatalf("runs = %v, want %v", r, tt.want)
			}
			checkRunSet(t, r, ref)
		})
	}
}

// FuzzRunSet applies arbitrary insertion and removal orders over four
// sources to a runSet and a map reference: has must agree with the
// reference after every step, and the runs must keep their invariants.
// Each input byte is one step: the high bit picks remove over add, the
// next two bits the source — a, ab, b or c, so one name prefixes another
// — and the low five bits the seq, so short inputs already merge runs
// and meet across sources.
func FuzzRunSet(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{4, 3, 2, 1, 0x82, 0x83})
	f.Add([]byte{10, 12, 11, 0x8b, 11, 0x8a, 0x8c})
	f.Add([]byte{4, 5, 0x46, 0x47, 6, 0x25, 0x66, 0xc6, 0x86, 0x44})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r runSet
		ref := make(map[tuple.ID]bool)
		for _, op := range ops {
			id := tuple.ID{Node: []tuple.NodeID{"a", "ab", "b", "c"}[op>>5&3], Seq: uint64(op & 0x1f)}
			if op&0x80 != 0 {
				if got := r.remove(id); got != ref[id] {
					t.Fatalf("remove(%v) = %v, reference %v", id, got, ref[id])
				}
				ref[id] = false
			} else {
				r.add(id)
				ref[id] = true
			}
			checkRunSet(t, r, ref)
		}
	})
}

// TestRunSetPerNodeBytes pins what a node pays for the tombstones of
// emu_fields: sources drawn as that workload draws them, from the 4 × 4
// centre of its 100 × 100 grid, inject fields that are each retracted
// in turn, until all 16 sources have had one. The node buries every id,
// which leaves one run per source, and the set must be one allocation
// of at most 576 B — 16 runs of 32 B and one spare. A map of per-source
// run slices held ~2.2 KB here.
func TestRunSetPerNodeBytes(t *testing.T) {
	const sets, sources, budget = 1000, 16, 576
	order := emuFieldsRetractions(sources)
	tabs := make([]stateTable, sets)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range tabs {
		for _, id := range order {
			tabs[i].bury(id)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / sets
	objs := float64(after.Mallocs-after.Frees-(before.Mallocs-before.Frees)) / sets
	t.Logf("%d fields from %d sources: %.0f B in %.2f allocations per node", len(order), sources, bytes, objs)
	if bytes > budget || objs > 1 {
		t.Errorf("a node's tombstones for %d sources retain %.0f B in %.2f allocations, budget one of %d B",
			sources, bytes, objs, budget)
	}
	for i := range tabs {
		if len(tabs[i].retracted) != sources {
			t.Fatalf("tombstones %v, want one run per source", tabs[i].retracted)
		}
	}
	runtime.KeepAlive(tabs)
}

// emuFieldsRetractions returns the ids of the fields emu_fields retracts,
// in order, until all of its sources have retracted one.
func emuFieldsRetractions(sources int) []tuple.ID {
	rng := rand.New(rand.NewSource(902))
	next := make(map[tuple.NodeID]uint64)
	var order []tuple.ID
	for len(next) < sources {
		x, y := 48+rng.Intn(4), 48+rng.Intn(4)
		src := topology.NodeName(y*100 + x)
		next[src]++
		order = append(order, tuple.ID{Node: src, Seq: next[src]})
	}
	return order
}

// FuzzStateTable drives arbitrary intern, park, bury, release, store,
// unstore and lookup sequences over 32 ids of three sources against a
// reference of where each id lives — a row, the parked set, the retracted
// set or nowhere — and of which ids a modelled store holds and which rows
// are marked stored. Interning goes through Node.stateFor, so a parked id
// must come back visited, and stored with the store's copy exactly when
// the store holds one; a row marked stored parks only while the store
// holds its copy. After every step the table must agree with the
// reference on every id — so an id is in at most one place — and the
// store on every held id; lookup must not have made a row, live must
// match the free list, and both run sets must keep their invariants.
// Each input byte is one step: the high three bits pick the operation
// and the low five bits k the id, seq k%11+1 of source a, b or c by k/11.
func FuzzStateTable(f *testing.F) {
	f.Add([]byte{0x01, 0x21, 0x01, 0x41, 0x01, 0xc1})
	f.Add([]byte{0x00, 0x01, 0x02, 0x20, 0x21, 0x22, 0x01, 0x41, 0x61, 0x00})
	f.Add([]byte{0x03, 0x23, 0x03, 0x43, 0x63, 0xc3, 0x03})
	f.Add([]byte{0x84, 0x04, 0x24, 0xa4, 0x24, 0x84, 0xa4, 0x04, 0x24, 0x84, 0x64, 0x04, 0x44, 0x84})
	f.Add([]byte{0x0a, 0x0b, 0x16, 0x2a, 0x8b, 0x56, 0x4b, 0x0a, 0xeb, 0x36, 0x2a, 0x8a})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			nowhere = iota
			row
			parked
			buried
		)
		n := &Node{}
		tab := &n.states
		where := make(map[tuple.ID]int)
		held, marked := make(map[tuple.ID]bool), make(map[tuple.ID]bool)
		idOf := func(b byte) tuple.ID {
			k := b & 0x1f
			return tuple.ID{Node: []tuple.NodeID{"a", "b", "c"}[k/11], Seq: uint64(k%11) + 1}
		}
		for step, op := range ops {
			id := idOf(op)
			switch op >> 5 {
			case 0: // intern
				st := n.stateFor(id)
				c, _, _ := n.store.get(id)
				switch where[id] {
				case buried:
					if st != nil {
						t.Fatalf("step %d: intern gave buried %v a row", step, id)
					}
				case parked:
					want := tupleState{flags: stVisited}
					if held[id] {
						want = tupleState{flags: stVisited | stStored, local: c}
					}
					if !reflect.DeepEqual(*st, want) || st.local != want.local {
						t.Fatalf("step %d: parked %v came back as %+v, want %+v", step, id, st, want)
					}
					where[id], marked[id] = row, held[id]
				case nowhere:
					if !reflect.DeepEqual(*st, tupleState{}) {
						t.Fatalf("step %d: new row for %v is %+v", step, id, st)
					}
					where[id] = row
				}
			case 1: // park, as the engine does after a visit
				if st := tab.lookup(id); st != nil {
					st.mark(stVisited)
				}
				tab.park(plainTuple(id), &n.store)
				if where[id] == row && (!marked[id] || held[id]) {
					where[id], marked[id] = parked, false
				}
			case 2: // bury, as retraction and expiry do: the copy goes first
				n.store.remove(id)
				tab.bury(id)
				where[id], held[id], marked[id] = buried, false, false
			case 3:
				tab.release(id)
				if where[id] == row {
					where[id], marked[id] = nowhere, false
				}
			case 4: // store a copy and park, as a delivery of a copy that stays put does
				st := n.stateFor(id)
				if st == nil {
					break
				}
				c := plainTuple(id)
				st.mark(stVisited | stStored)
				st.local = c
				n.store.put(c, st.hop)
				tab.park(c, &n.store)
				where[id], held[id], marked[id] = parked, true, false
			case 5: // the store drops the copy, leaving any row marked
				n.store.remove(id)
				held[id] = false
			default:
				live := tab.len()
				if got := tab.lookup(id) != nil; got != (where[id] == row) || tab.len() != live {
					t.Fatalf("step %d: lookup(%v) = %v with the id %d, rows %d → %d",
						step, id, got, where[id], live, tab.len())
				}
			}
			rows := 0
			for b := 0; b < 32; b++ {
				id := idOf(byte(b))
				_, isRow := tab.handleOf(id)
				in := [...]bool{row: isRow, parked: tab.parked.has(id), buried: tab.retracted.has(id)}
				for w := row; w <= buried; w++ {
					if in[w] != (where[id] == w) {
						t.Fatalf("step %d: %v is in %v (row, parked, retracted), reference %d", step, id, in[1:], where[id])
					}
				}
				if _, _, ok := n.store.get(id); ok != held[id] {
					t.Fatalf("step %d: the store holds %v: %v, reference %v", step, id, ok, held[id])
				}
				if isRow {
					rows++
				}
			}
			if tab.live != rows || tab.live != len(tab.ids)-len(tab.free) {
				t.Fatalf("step %d: live %d, %d rows, %d slots, %d free", step, tab.live, rows, len(tab.ids), len(tab.free))
			}
			for _, h := range tab.free {
				if !tab.ids[h].IsZero() {
					t.Fatalf("step %d: free handle %d holds %v", step, h, tab.ids[h])
				}
			}
			for _, set := range []runSet{tab.parked, tab.retracted} {
				if err := runSetErr(set); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
	})
}

// plainTuple is a tuple that is not Maintained, with id.
func plainTuple(id tuple.ID) tuple.Tuple {
	t := &countingTuple{}
	t.SetID(id)
	return t
}

// TestStateTableParkRehydrates pins park's contract: a seen-only row
// leaves the slab, lookup leaves it parked, and intern brings it back as
// exactly the visited-only row, once, reporting that it un-parked it. A
// stored row parks too while the store holds its copy at its hop, the
// copy neither propagates nor has a lease, and the row holds nothing
// else; any other content keeps the row in the slab.
func TestStateTableParkRehydrates(t *testing.T) {
	var tab stateTable
	var s store
	for i := 0; i < 100; i++ {
		st, _ := tab.intern(stID(i))
		st.mark(stVisited | stPropagated)
		st.hop = 3
		tab.park(plainTuple(stID(i)), &s)
	}
	if tab.len() != 0 || len(tab.parked) != 1 {
		t.Fatalf("100 in-order parks: %d rows, runs %v", tab.len(), tab.parked)
	}
	if tab.lookup(tuple.ID{}) != nil {
		t.Error("the zero id resolved to a freed slot")
	}
	if tab.parked.has(stID(100)) || !tab.parked.has(stID(40)) {
		t.Error("isParked disagrees with the parks made")
	}
	if tab.lookup(stID(40)) != nil || tab.len() != 0 || !tab.parked.has(stID(40)) {
		t.Fatal("lookup brought a parked row back")
	}
	st, unparked := tab.intern(stID(40))
	if !unparked || !reflect.DeepEqual(*st, tupleState{flags: stVisited}) {
		t.Fatalf("parked id came back as %+v, unparked %v", st, unparked)
	}
	if tab.len() != 1 || len(tab.parked) != 2 || tab.parked.has(stID(40)) {
		t.Fatalf("after one rehydration: %d rows, runs %v", tab.len(), tab.parked)
	}
	if again, unparked := tab.intern(stID(40)); again != st || unparked {
		t.Error("a rehydrated row was rehydrated twice")
	}

	// storeCopy marks a row stored with c, which the store holds at the
	// row's hop, as a delivery that stays put does.
	storeCopy := func(st *tupleState, c tuple.Tuple) {
		st.mark(stVisited | stStored)
		st.local = c
		s.put(c, st.hop)
	}
	id := tuple.ID{Node: "s", Seq: 1}
	st, _ = tab.intern(id)
	st.hop = 2
	storeCopy(st, plainTuple(id))
	tab.park(plainTuple(id), &s)
	if _, ok := tab.handleOf(id); ok || !tab.parked.has(id) {
		t.Error("a row holding nothing but a stored copy was not parked")
	}
	if st, unparked := tab.intern(id); !unparked || st.flags != stVisited {
		t.Errorf("a parked stored row came back as %+v from intern, unparked %v", st, unparked)
	}

	keep := []func(st *tupleState, id tuple.ID){
		func(st *tupleState, id tuple.ID) {}, // never visited
		func(st *tupleState, id tuple.ID) { st.mark(stVisited | stStored); st.local = plainTuple(id) }, // the store holds no copy
		func(st *tupleState, id tuple.ID) { storeCopy(st, plainTuple(id)); st.local = plainTuple(id) }, // the store holds another copy
		func(st *tupleState, id tuple.ID) { storeCopy(st, plainTuple(id)); st.hop = 1 },                // at another hop
		func(st *tupleState, id tuple.ID) { storeCopy(st, plainTuple(id)); st.mark(stPropagated) },
		func(st *tupleState, id tuple.ID) {
			f := pattern.NewFlood("f").Expires(5)
			f.SetID(id)
			storeCopy(st, f)
		},
		func(st *tupleState, id tuple.ID) { st.mark(stVisited | stSupportTab) },
		func(st *tupleState, id tuple.ID) { st.mark(stVisited); st.peerFor("p", 1) },
		func(st *tupleState, id tuple.ID) { st.mark(stVisited); st.traceID = 1 },
		func(st *tupleState, id tuple.ID) { st.mark(stVisited); st.parentSpan = 1 },
		func(st *tupleState, id tuple.ID) { st.mark(stVisited); st.ver = 1 },
		func(st *tupleState, id tuple.ID) { st.mark(stVisited); st.encCache = []byte{1} },
	}
	for i, set := range keep {
		id := tuple.ID{Node: "k", Seq: uint64(i + 1)}
		st, _ := tab.intern(id)
		set(st, id)
		tab.park(plainTuple(id), &s)
		if _, ok := tab.handleOf(id); !ok {
			t.Errorf("case %d: a row holding more than the visited mark or a parkable copy was parked", i)
		}
	}
	g := pattern.NewGradient("g")
	g.SetID(tuple.ID{Node: "m", Seq: 1})
	st, _ = tab.intern(g.ID())
	st.mark(stVisited | stSource)
	tab.park(g, &s)
	if _, ok := tab.handleOf(g.ID()); !ok {
		t.Error("a maintained tuple's row was parked")
	}
}
