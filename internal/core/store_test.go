package core

import (
	"fmt"
	"math/rand"
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
	s := newStore(tuple.DefaultRegistry)
	a := mkLocal(t, "a", 1)
	s.put(a)
	if got, ok := s.get(a.ID()); !ok || got != a {
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

func TestStoreReplacementKeepsSingleEntry(t *testing.T) {
	s := newStore(tuple.DefaultRegistry)
	a1 := mkLocal(t, "a", 1)
	s.put(a1)
	a2 := mkLocal(t, "a", 1) // same id, new instance
	s.put(a2)
	if s.size() != 1 {
		t.Fatalf("size = %d after replacement", s.size())
	}
	got := s.readRaw(pattern.ByName(pattern.KindLocal, "a"))
	if len(got) != 1 || got[0] != tuple.Tuple(a2) {
		t.Errorf("readRaw = %v", got)
	}
}

func TestStoreIndexedReadsMatchFullScan(t *testing.T) {
	// Property: whatever sequence of puts/removes, index-assisted reads
	// agree with a full-order scan.
	rng := rand.New(rand.NewSource(8))
	s := newStore(tuple.DefaultRegistry)
	live := make(map[tuple.ID]tuple.Tuple)
	names := []string{"a", "b", "c", "d"}
	var seq uint64
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			seq++
			name := names[rng.Intn(len(names))]
			tt := mkLocal(t, name, seq)
			s.put(tt)
			live[tt.ID()] = tt
		} else {
			for id := range live {
				s.remove(id)
				delete(live, id)
				break
			}
		}
	}
	for _, name := range names {
		tpl := pattern.ByName(pattern.KindLocal, name)
		indexed := s.readRaw(tpl)
		var scanned []tuple.Tuple
		for _, id := range s.ids() {
			if tt, ok := s.get(id); ok && tpl.Matches(tt) {
				scanned = append(scanned, tt)
			}
		}
		if len(indexed) != len(scanned) {
			t.Fatalf("name %s: indexed %d vs scanned %d", name, len(indexed), len(scanned))
		}
		for i := range indexed {
			if indexed[i] != scanned[i] {
				t.Fatalf("name %s: order mismatch at %d", name, i)
			}
		}
	}
	if got := s.readRaw(tuple.MatchAll()); len(got) != len(live) {
		t.Errorf("MatchAll = %d, live = %d", len(got), len(live))
	}
}

// TestStoreMinValueMatchesTemplateRead: in small and in big mode, under
// puts, replacements and removals, minValue answers what a read of
// pattern.ByName answers — the minimum over the matching Maintained
// copies — and asks visible about exactly the tuples that read matches.
func TestStoreMinValueMatchesTemplateRead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newStore(tuple.DefaultRegistry)
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
			s.put(tt)
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
	s := newStore(tuple.DefaultRegistry)
	for i := 0; i < 100; i++ {
		s.put(mkLocal(t, fmt.Sprintf("item%d", i), uint64(i+1)))
	}
	g := pattern.NewGradient("field")
	g.SetID(tuple.ID{Node: "n", Seq: 999})
	s.put(g)

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
// ids() snapshot, with no tombstones leaking out.
func TestStoreBulkRemoval(t *testing.T) {
	s := newStore(tuple.DefaultRegistry)
	const n = 5000
	for i := 1; i <= n; i++ {
		s.put(mkLocal(t, fmt.Sprintf("bulk%d", i%7), uint64(i)))
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
	s.put(mkLocal(t, "fresh", n+1))
	if _, ok := s.get(tuple.ID{Node: "n", Seq: n + 1}); !ok {
		t.Fatal("put after bulk removal failed")
	}
}

func TestStoreReadOne(t *testing.T) {
	s := newStore(tuple.DefaultRegistry)
	s.put(mkLocal(t, "x", 1))
	s.put(mkLocal(t, "x", 2))
	got, ok := s.readOne(pattern.ByName(pattern.KindLocal, "x"))
	if !ok || got.ID().Seq != 1 {
		t.Errorf("readOne = %v, %v (want first arrival)", got, ok)
	}
	if _, ok := s.readOne(pattern.ByName(pattern.KindLocal, "zzz")); ok {
		t.Error("readOne found missing tuple")
	}
}
