package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tota/internal/pattern"
	"tota/internal/tuple"
)

func mkLocal(t *testing.T, name string, seq uint64) tuple.Tuple {
	t.Helper()
	l := pattern.NewLocal(name, tuple.I("v", int64(seq)))
	l.SetID(tuple.ID{Node: "n", Seq: seq})
	return l
}

func TestStorePutGetRemove(t *testing.T) {
	s := &store{}
	a := mkLocal(t, "a", 1)
	s.put(a, 3)
	if got, hop, ok := s.get(a.ID()); !ok || got != a || hop != 3 {
		t.Fatal("get after put failed")
	}
	if s.size() != 1 || len(s.ids()) != 1 {
		t.Errorf("size = %d", s.size())
	}
	if removed, ok := s.remove(a.ID()); !ok || removed != a {
		t.Fatal("remove failed")
	}
	if s.size() != 0 {
		t.Error("size after remove")
	}
	if _, ok := s.remove(a.ID()); ok {
		t.Error("double remove succeeded")
	}
}

// TestStoreKeepsHop: the hop put with a copy comes back with it, in
// small mode and across promotion, and a replacement's hop wins.
func TestStoreKeepsHop(t *testing.T) {
	s := &store{}
	check := func(upTo int, hop2 int32) {
		t.Helper()
		for i := 1; i <= upTo; i++ {
			want := int32(i)
			if i == 2 {
				want = hop2
			}
			if _, hop, ok := s.get(tuple.ID{Node: "n", Seq: uint64(i)}); !ok || hop != want {
				t.Fatalf("copy %d of %d: hop %d, %v; want %d", i, upTo, hop, ok, want)
			}
		}
	}
	for i := 1; i <= storeSmallMax; i++ {
		s.put(mkLocal(t, "x", uint64(i)), int32(i))
	}
	s.put(mkLocal(t, "x", 2), 5)
	check(storeSmallMax, 5)
	const n = 3 * storeSmallMax
	for i := storeSmallMax + 1; i <= n; i++ {
		s.put(mkLocal(t, "x", uint64(i)), int32(i))
	}
	if s.big == nil {
		t.Fatal("the store never promoted")
	}
	check(n, 5)
	s.put(mkLocal(t, "x", 2), 7)
	check(n, 7)
}

func TestStoreReplacementKeepsSingleEntry(t *testing.T) {
	s := &store{}
	a1 := mkLocal(t, "a", 1)
	s.put(a1, 0)
	a2 := mkLocal(t, "a", 1) // same id, new instance
	s.put(a2, 0)
	if s.size() != 1 {
		t.Fatalf("size = %d after replacement", s.size())
	}
	got := s.readRaw(pattern.ByName(pattern.KindLocal, "a"))
	if len(got) != 1 || got[0] != tuple.Tuple(a2) {
		t.Errorf("readRaw = %v", got)
	}
}

// storeRef is the model a store must agree with: the live tuples in
// arrival order, where a replacement keeps its predecessor's place and a
// re-put after removal arrives anew.
type storeRef []tuple.Tuple

func (r *storeRef) put(tt tuple.Tuple) {
	for i := range *r {
		if (*r)[i].ID() == tt.ID() {
			(*r)[i] = tt
			return
		}
	}
	*r = append(*r, tt)
}

func (r *storeRef) remove(id tuple.ID) {
	for i := range *r {
		if (*r)[i].ID() == id {
			*r = append((*r)[:i], (*r)[i+1:]...)
			return
		}
	}
}

// mkKindTuple builds a tuple of kind (KindLocal or KindGradient) named
// name, with id seq.
func mkKindTuple(kind, name string, seq uint64) tuple.Tuple {
	var tt tuple.Tuple = pattern.NewLocal(name, tuple.I("v", int64(seq)))
	if kind == pattern.KindGradient {
		tt = pattern.NewGradient(name)
	}
	tt.SetID(tuple.ID{Node: "n", Seq: seq})
	return tt
}

// checkStoreReads compares every kind read, (kind, name) read and
// full-scan read of s — by the kind list, the (kind, name) list and the
// order list — and its ids snapshot with a scan of ref in arrival order.
// With keysMoved (some replacement changed a tuple's kind or name), the
// exact-kind reads are compared as sets: big mode files such a
// replacement at the end of its new kind and (kind, name) lists.
func checkStoreReads(t *testing.T, s *store, ref storeRef, names []string, keysMoved bool) {
	t.Helper()
	tpls := []tuple.Template{tuple.MatchAll(), tuple.Match("tota:*")}
	for _, kind := range []string{pattern.KindLocal, pattern.KindGradient} {
		tpls = append(tpls, tuple.Match(kind))
		for _, name := range names {
			tpls = append(tpls, pattern.ByName(kind, name), pattern.ByName("tota:*", name))
		}
	}
	for _, tpl := range tpls {
		var want []tuple.Tuple
		for _, tt := range ref {
			if tpl.Matches(tt) {
				want = append(want, tt)
			}
		}
		got := s.readRaw(tpl)
		if keysMoved && tpl.Kind != "" && !strings.HasSuffix(tpl.Kind, "*") {
			bySeq := func(a, b tuple.Tuple) int { return cmp.Compare(a.ID().Seq, b.ID().Seq) }
			slices.SortFunc(got, bySeq)
			slices.SortFunc(want, bySeq)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: read %d tuples, reference %d", tpl, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: read[%d] = %s, reference %s (arrival order lost)", tpl, i, got[i].ID(), want[i].ID())
			}
		}
	}
	ids := s.ids()
	if len(ids) != len(ref) || s.size() != len(ref) {
		t.Fatalf("ids() = %d, size() = %d, reference %d", len(ids), s.size(), len(ref))
	}
	for i := range ids {
		if ids[i] != ref[i].ID() {
			t.Fatalf("ids()[%d] = %s, reference %s", i, ids[i], ref[i].ID())
		}
	}
}

// storeListLens snapshots the length of every big-mode id list, keyed
// "order", "kind:K" and "kn:K\x00N".
func storeListLens(s *store) map[string]int {
	lens := map[string]int{"order": len(s.big.order.ids)}
	for k, l := range s.big.byKind {
		lens["kind:"+k] = len(l.ids)
	}
	for k, l := range s.big.byKindName {
		lens["kn:"+k] = len(l.ids)
	}
	return lens
}

// TestStoreIndexedReadsMatchFullScan: under seeded put, replace, remove
// and re-put sequences, every kind, (kind, name) and full-scan read
// equals a reference scan in arrival order. Seed 8 replaces tuples under
// their own kind and name; seeds 9 and 10 also change them, and check
// the moved tuples' kind reads as sets (see checkStoreReads). The
// sequence grows the space, drains most of it and regrows it, so every
// list it files tuples on crosses the compaction threshold.
func TestStoreIndexedReadsMatchFullScan(t *testing.T) {
	kinds := []string{pattern.KindLocal, pattern.KindGradient}
	names := []string{"a", "b", "c", "d"}
	for _, seed := range []int64{8, 9, 10} {
		keysMoved := seed != 8
		rng := rand.New(rand.NewSource(seed))
		s := &store{}
		var ref storeRef
		var removed []uint64
		var seq uint64
		compacted := make(map[string]bool)
		for step := 0; step < 1800; step++ {
			pRemove := []int{20, 80, 35}[step/600] // grow, drain, regrow
			var lens map[string]int
			if s.big != nil {
				lens = storeListLens(s)
			}
			switch r := rng.Intn(100); {
			case r < pRemove && len(ref) > 0:
				id := ref[rng.Intn(len(ref))].ID()
				s.remove(id)
				ref.remove(id)
				removed = append(removed, id.Seq)
			case r < pRemove+15 && len(ref) > 0: // replace
				old := ref[rng.Intn(len(ref))]
				kind, name := old.Kind(), nameOf(old)
				if keysMoved {
					kind, name = kinds[rng.Intn(len(kinds))], names[rng.Intn(len(names))]
				}
				tt := mkKindTuple(kind, name, old.ID().Seq)
				s.put(tt, 0)
				ref.put(tt)
			case r < pRemove+25 && len(removed) > 0: // re-put a removed id
				i := rng.Intn(len(removed))
				tt := mkKindTuple(kinds[rng.Intn(len(kinds))], names[rng.Intn(len(names))], removed[i])
				removed = append(removed[:i], removed[i+1:]...)
				s.put(tt, 0)
				ref.put(tt)
			default:
				seq++
				tt := mkKindTuple(kinds[rng.Intn(len(kinds))], names[rng.Intn(len(names))], seq+1000)
				s.put(tt, 0)
				ref.put(tt)
			}
			for k, n := range lens {
				if now := storeListLens(s)[k]; now < n {
					compacted[k] = true
				}
			}
			if step%10 == 0 {
				checkStoreReads(t, s, ref, names, keysMoved)
			}
		}
		checkStoreReads(t, s, ref, names, keysMoved)
		for k := range storeListLens(s) {
			if !compacted[k] {
				t.Errorf("seed %d: list %q never compacted", seed, k)
			}
		}
	}
}

// TestStoreMinValueMatchesTemplateRead: in small and in big mode, under
// puts, replacements and removals, minValue answers what a read of
// pattern.ByName answers — the minimum over the matching Maintained
// copies — and asks visible about exactly the tuples that read matches.
func TestStoreMinValueMatchesTemplateRead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &store{}
	names := []string{"a", "b", ""}
	var ids []tuple.ID
	check := func(step int) {
		for _, kind := range []string{pattern.KindGradient, pattern.KindLocal, "tota:*", ""} {
			for _, name := range append(names, "missing") {
				var wantAsked []tuple.Tuple
				var want float64
				wantOK := false
				for _, tt := range s.readRaw(pattern.ByName(kind, name)) {
					wantAsked = append(wantAsked, tt)
					if m, ok := tt.(tuple.Maintained); ok && (!wantOK || m.Value() < want) {
						want, wantOK = m.Value(), true
					}
				}
				var asked []tuple.Tuple
				got, ok := s.minValue(kind, name, func(tt tuple.Tuple) bool {
					asked = append(asked, tt)
					return true
				})
				if ok != wantOK || (ok && got != want) || len(asked) != len(wantAsked) {
					t.Fatalf("step %d, %q/%q: minValue = %v, %v asking %d; read says %v, %v over %d",
						step, kind, name, got, ok, len(asked), want, wantOK, len(wantAsked))
				}
				for i := range asked {
					if asked[i] != wantAsked[i] {
						t.Fatalf("step %d, %q/%q: visible asked out of arrival order", step, kind, name)
					}
				}
			}
		}
	}
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(5); {
		case r < 4 || len(ids) == 0:
			var tt tuple.Tuple
			id := tuple.ID{Node: "n", Seq: uint64(step + 1)}
			if r == 3 && len(ids) > 0 {
				id = ids[rng.Intn(len(ids))] // replace a stored copy
			} else {
				ids = append(ids, id)
			}
			name := names[rng.Intn(len(names))]
			if rng.Intn(2) == 0 {
				g := pattern.NewGradient(name)
				g.Val = float64(rng.Intn(10))
				tt = g
			} else {
				tt = pattern.NewLocal(name)
			}
			tt.SetID(id)
			s.put(tt, 0)
		default:
			i := rng.Intn(len(ids))
			s.remove(ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		}
		check(step)
	}
	if s.big == nil {
		t.Fatal("the store never promoted: big mode untested")
	}
}

func TestStoreCandidatesSelectivity(t *testing.T) {
	s := &store{}
	for i := 0; i < 100; i++ {
		s.put(mkLocal(t, fmt.Sprintf("item%d", i), uint64(i+1)), 0)
	}
	g := pattern.NewGradient("field")
	g.SetID(tuple.ID{Node: "n", Seq: 999})
	s.put(g, 0)

	if got := len(s.candidates(pattern.KindLocal, "item5", true)); got != 1 {
		t.Errorf("kind+name candidates = %d, want 1", got)
	}
	if got := len(s.candidates(pattern.KindGradient, "", false)); got != 1 {
		t.Errorf("kind candidates = %d, want 1", got)
	}
	if got := len(s.candidates("", "", false)); got != 101 {
		t.Errorf("all candidates = %d, want 101", got)
	}
	// Prefix-glob kinds cannot use the index.
	if got := len(s.candidates("tota:*", "", false)); got != 101 {
		t.Errorf("glob candidates = %d, want 101", got)
	}
}

// TestStoreBulkRemoval exercises the tombstone/compaction path that
// keeps sweeping thousands of expiring tuples linear: interleaved bulk
// removals must preserve arrival order, index consistency, and the
// ids() snapshot, with no tombstones leaking out. A seeded second phase
// re-puts removed ids and replaces survivors under new kinds and names,
// and every read still equals a reference scan (see checkStoreReads).
func TestStoreBulkRemoval(t *testing.T) {
	s := &store{}
	var ref storeRef
	const n = 5000
	for i := 1; i <= n; i++ {
		tt := mkLocal(t, fmt.Sprintf("bulk%d", i%7), uint64(i))
		s.put(tt, 0)
		ref = append(ref, tt)
	}
	// Remove every id not divisible by 5, front-to-back (worst case for
	// a compacting slice).
	for i := 1; i <= n; i++ {
		if i%5 != 0 {
			if _, ok := s.remove(tuple.ID{Node: "n", Seq: uint64(i)}); !ok {
				t.Fatalf("remove seq %d failed", i)
			}
		}
	}
	if s.size() != n/5 {
		t.Fatalf("size = %d, want %d", s.size(), n/5)
	}
	ids := s.ids()
	if len(ids) != n/5 {
		t.Fatalf("ids() = %d entries, want %d", len(ids), n/5)
	}
	for i, id := range ids {
		if id.IsZero() {
			t.Fatal("ids() leaked a tombstone")
		}
		if want := uint64((i + 1) * 5); id.Seq != want {
			t.Fatalf("ids()[%d].Seq = %d, want %d (arrival order lost)", i, id.Seq, want)
		}
	}
	// Index-assisted reads agree with the survivors.
	got := s.readRaw(pattern.ByName(pattern.KindLocal, "bulk3"))
	for _, tt := range got {
		if tt.ID().Seq%5 != 0 {
			t.Fatalf("readRaw returned removed tuple %s", tt.ID())
		}
	}
	// Re-adding after heavy removal still works.
	s.put(mkLocal(t, "fresh", n+1), 0)
	if _, _, ok := s.get(tuple.ID{Node: "n", Seq: n + 1}); !ok {
		t.Fatal("put after bulk removal failed")
	}

	ref = ref[:0]
	for _, id := range s.ids() {
		tt, _, _ := s.get(id)
		ref = append(ref, tt)
	}
	names := []string{"bulk0", "bulk3", "fresh", "moved"}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 3000; step++ {
		var tt tuple.Tuple
		switch r := rng.Intn(3); {
		case r == 0: // re-put a removed id: a new arrival
			seq := uint64(rng.Intn(n) + 1)
			if seq%5 == 0 {
				seq++
			}
			tt = mkKindTuple(pattern.KindLocal, names[rng.Intn(len(names))], seq)
		case r == 1: // replace a survivor under a new kind or name
			kind := pattern.KindLocal
			if rng.Intn(2) == 0 {
				kind = pattern.KindGradient
			}
			tt = mkKindTuple(kind, names[rng.Intn(len(names))], ref[rng.Intn(len(ref))].ID().Seq)
		default:
			id := ref[rng.Intn(len(ref))].ID()
			s.remove(id)
			ref.remove(id)
			continue
		}
		s.put(tt, 0)
		ref.put(tt)
		if step%100 == 0 {
			checkStoreReads(t, s, ref, names, true)
		}
	}
	checkStoreReads(t, s, ref, names, true)
}

func TestStoreReadOne(t *testing.T) {
	s := &store{}
	s.put(mkLocal(t, "x", 1), 0)
	s.put(mkLocal(t, "x", 2), 0)
	got, ok := s.readOne(pattern.ByName(pattern.KindLocal, "x"))
	if !ok || got.ID().Seq != 1 {
		t.Errorf("readOne = %v, %v (want first arrival)", got, ok)
	}
	if _, ok := s.readOne(pattern.ByName(pattern.KindLocal, "zzz")); ok {
		t.Error("readOne found missing tuple")
	}
}
