package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"tota/internal/pattern"
	"tota/internal/tuple"
)

func stID(i int) tuple.ID { return tuple.ID{Node: "n", Seq: uint64(i + 1)} }

// TestStateChunkFor pins the slab geometry: chunk k holds 1<<k states
// and handles map to (chunk, slot) without gaps or overlaps.
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
	first := tab.intern(stID(0))
	first.hop = 42
	for i := 1; i < 200; i++ {
		tab.intern(stID(i)).hop = int32(i)
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

// checkSeenRuns fails unless r is sorted, disjoint and non-adjacent and
// holds exactly the seqs ref marks true.
func checkSeenRuns(t *testing.T, r seenRuns, ref map[uint64]bool) {
	t.Helper()
	n := 0
	for i, run := range r {
		if run.lo > run.hi {
			t.Fatalf("run %d = %v is inverted: %v", i, run, r)
		}
		if i > 0 && r[i-1].hi+1 >= run.lo {
			t.Fatalf("runs %d and %d overlap or touch: %v", i-1, i, r)
		}
		n += int(run.hi - run.lo + 1)
	}
	want := 0
	for seq, in := range ref {
		if in {
			want++
		}
		if r.has(seq) != in {
			t.Fatalf("has(%d) = %v, reference %v: %v", seq, !in, in, r)
		}
	}
	if n != want {
		t.Fatalf("runs cover %d seqs, reference holds %d: %v", n, want, r)
	}
}

func TestSeenRuns(t *testing.T) {
	tests := []struct {
		name   string
		add    []uint64
		remove []uint64
		want   seenRuns
	}{
		{name: "empty"},
		{name: "in order is one run", add: []uint64{1, 2, 3, 4}, want: seenRuns{{1, 4}}},
		{name: "reverse order is one run", add: []uint64{4, 3, 2, 1}, want: seenRuns{{1, 4}}},
		{name: "gap", add: []uint64{1, 2, 5, 6}, want: seenRuns{{1, 2}, {5, 6}}},
		{name: "filling a gap merges", add: []uint64{1, 3, 2}, want: seenRuns{{1, 3}}},
		{name: "duplicates", add: []uint64{7, 7, 8, 7}, want: seenRuns{{7, 8}}},
		{name: "insert before all", add: []uint64{9, 5}, want: seenRuns{{5, 5}, {9, 9}}},
		{name: "extremes", add: []uint64{0, math.MaxUint64, math.MaxUint64 - 1}, want: seenRuns{{0, 0}, {math.MaxUint64 - 1, math.MaxUint64}}},
		{name: "remove splits", add: []uint64{1, 2, 3, 4, 5}, remove: []uint64{3}, want: seenRuns{{1, 2}, {4, 5}}},
		{name: "remove ends", add: []uint64{1, 2, 3}, remove: []uint64{1, 3}, want: seenRuns{{2, 2}}},
		{name: "remove singleton", add: []uint64{1, 5}, remove: []uint64{5}, want: seenRuns{{1, 1}}},
		{name: "remove absent", add: []uint64{1, 2}, remove: []uint64{3, 0}, want: seenRuns{{1, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var r seenRuns
			ref := make(map[uint64]bool)
			for _, seq := range tt.add {
				r.add(seq)
				ref[seq] = true
			}
			for _, seq := range tt.remove {
				if got := r.remove(seq); got != ref[seq] {
					t.Errorf("remove(%d) = %v, want %v", seq, got, ref[seq])
				}
				ref[seq] = false
			}
			if len(r) != len(tt.want) {
				t.Fatalf("runs = %v, want %v", r, tt.want)
			}
			for i := range r {
				if r[i] != tt.want[i] {
					t.Fatalf("runs = %v, want %v", r, tt.want)
				}
			}
			checkSeenRuns(t, r, ref)
		})
	}
}

// FuzzSeenRuns applies arbitrary insertion and removal orders to a
// seenRuns and a map reference: has must agree with the reference after
// every step, and the runs must stay sorted, disjoint and non-adjacent.
// Each input byte is one step: the high bit picks remove over add, the
// low six bits the seq, so short inputs already collide and merge runs.
func FuzzSeenRuns(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{4, 3, 2, 1, 0x82, 0x83})
	f.Add([]byte{10, 12, 11, 0x8b, 11, 0x8a, 0x8c})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r seenRuns
		ref := make(map[uint64]bool)
		for _, op := range ops {
			seq := uint64(op & 0x3f)
			if op&0x80 != 0 {
				if got := r.remove(seq); got != ref[seq] {
					t.Fatalf("remove(%d) = %v, reference %v", seq, got, ref[seq])
				}
				ref[seq] = false
			} else {
				r.add(seq)
				ref[seq] = true
			}
			checkSeenRuns(t, r, ref)
		}
	})
}

// FuzzStateTable drives arbitrary intern, park, bury, release and
// lookup sequences over 32 ids of two sources against a reference map
// of where each id lives: a row, the parked set, the retracted set or
// nowhere. After every step the table must agree with the reference on
// every id — so an id is in at most one place — lookup must not have
// made a row, live must match the free list, and no source may be left
// holding an empty run list. Each input byte is one step: the high three
// bits pick the operation, bit 4 the source and the low four bits the seq.
func FuzzStateTable(f *testing.F) {
	f.Add([]byte{0x01, 0x21, 0x01, 0x41, 0x01, 0x81})
	f.Add([]byte{0x00, 0x01, 0x02, 0x20, 0x21, 0x22, 0x01, 0x41, 0x61, 0x00})
	f.Add([]byte{0x03, 0x23, 0x03, 0x43, 0x63, 0x83, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			nowhere = iota
			row
			parked
			buried
		)
		var tab stateTable
		where := make(map[tuple.ID]int)
		idOf := func(b byte) tuple.ID {
			return tuple.ID{Node: []tuple.NodeID{"a", "b"}[b>>4&1], Seq: uint64(b&0x0f) + 1}
		}
		for step, op := range ops {
			id := idOf(op)
			switch op >> 5 {
			case 0: // intern
				st := tab.intern(id)
				switch {
				case where[id] == buried:
					if st != nil {
						t.Fatalf("step %d: intern gave buried %v a row", step, id)
					}
				case where[id] == parked && st.flags != stVisited:
					t.Fatalf("step %d: parked %v came back as %+v", step, id, st)
				default:
					where[id] = row
				}
			case 1: // park, as the engine does after a visit
				if st := tab.lookup(id); st != nil {
					st.mark(stVisited)
				}
				tab.park(plainTuple(id))
				if where[id] == row {
					where[id] = parked
				}
			case 2:
				tab.bury(id)
				where[id] = buried
			case 3:
				tab.release(id)
				if where[id] == row {
					where[id] = nowhere
				}
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
				for src, runs := range set {
					if len(runs) == 0 {
						t.Fatalf("step %d: source %s keeps an empty run list", step, src)
					}
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
// exactly the visited-only row, once; any other content keeps the row in
// the slab.
func TestStateTableParkRehydrates(t *testing.T) {
	var tab stateTable
	for i := 0; i < 100; i++ {
		st := tab.intern(stID(i))
		st.mark(stVisited | stPropagated)
		st.hop = 3
		tab.park(plainTuple(stID(i)))
	}
	if tab.len() != 0 || len(tab.parked) != 1 || len(tab.parked["n"]) != 1 {
		t.Fatalf("100 in-order parks: %d rows, runs %v", tab.len(), tab.parked)
	}
	if tab.lookup(tuple.ID{}) != nil {
		t.Error("the zero id resolved to a freed slot")
	}
	if tab.parked["n"].has(stID(100).Seq) || !tab.parked["n"].has(stID(40).Seq) {
		t.Error("isParked disagrees with the parks made")
	}
	if tab.lookup(stID(40)) != nil || tab.len() != 0 || !tab.parked["n"].has(stID(40).Seq) {
		t.Fatal("lookup brought a parked row back")
	}
	st := tab.intern(stID(40))
	if !reflect.DeepEqual(*st, tupleState{flags: stVisited}) {
		t.Fatalf("parked id came back as %+v", st)
	}
	if tab.len() != 1 || len(tab.parked["n"]) != 2 || tab.parked["n"].has(stID(40).Seq) {
		t.Fatalf("after one rehydration: %d rows, runs %v", tab.len(), tab.parked["n"])
	}
	if again := tab.intern(stID(40)); again != st {
		t.Error("a rehydrated row was rehydrated twice")
	}

	keep := []func(*tupleState){
		func(st *tupleState) {}, // never visited
		func(st *tupleState) { st.mark(stVisited | stStored) },
		func(st *tupleState) { st.mark(stVisited | stSupportTab) },
		func(st *tupleState) { st.mark(stVisited); st.peerFor("p", 1) },
		func(st *tupleState) { st.mark(stVisited); st.traceID = 1 },
		func(st *tupleState) { st.mark(stVisited); st.parentSpan = 1 },
		func(st *tupleState) { st.mark(stVisited); st.ver = 1 },
		func(st *tupleState) { st.mark(stVisited); st.encCache = []byte{1} },
	}
	for i, set := range keep {
		id := tuple.ID{Node: "k", Seq: uint64(i + 1)}
		set(tab.intern(id))
		tab.park(plainTuple(id))
		if _, ok := tab.handleOf(id); !ok {
			t.Errorf("case %d: a row holding more than the visited mark was parked", i)
		}
	}
	g := pattern.NewGradient("g")
	g.SetID(tuple.ID{Node: "m", Seq: 1})
	tab.intern(g.ID()).mark(stVisited | stSource)
	tab.park(g)
	if _, ok := tab.handleOf(g.ID()); !ok {
		t.Error("a maintained tuple's row was parked")
	}
}
