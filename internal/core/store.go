package core

import (
	"strings"

	"tota/internal/tuple"
)

// idList is an arrival-ordered id list with O(1) removal: deleting turns
// the entry into a zero-id tombstone, and the slice is compacted lazily
// once tombstones dominate. The list keeps no id → position map: each
// tuple's storeSlot records its position on every list it is filed in,
// so bulk removals (expiry sweeps over thousands of tuples) stay linear
// instead of O(n²), and compaction rewrites the positions it moves.
type idList struct {
	ids  []tuple.ID
	dead int
}

// The lists a storeSlot records its positions on.
const posOrder, posKind, posKindName = 0, 1, 2

// storeSlot is a big-mode tuple's one index entry: the stored copy, its
// positions on the order, kind and (kind, name) lists, and its hop,
// which fits in the slot's alignment padding.
type storeSlot struct {
	t   tuple.Tuple
	pos [3]int32
	hop int32
}

// storeEnt is one small-mode entry: the stored copy and its hop, with
// its keys pulled out once, at put — the id, so the linear scans compare
// ids without an interface call, and the "name" field, so structure
// sensing and promotion never rebuild the copy's content. Big mode
// stores no name: its (kind, name) index lists already say which name
// each tuple carries, and a name in every byID slot would be paid for
// each tuple a large space keeps.
type storeEnt struct {
	id   tuple.ID
	name string
	t    tuple.Tuple
	hop  int32
}

func newStoreEnt(t tuple.Tuple, hop int32) storeEnt {
	return storeEnt{id: t.ID(), name: nameOf(t), t: t, hop: hop}
}

// nameOf reads t's "name" field ("" when absent or not a string), the
// name the (kind, name) index files t under.
func nameOf(t tuple.Tuple) string { return t.Content().GetString("name") }

// storeSmallMax is the largest space kept in small mode. At a typical
// deployment a node stores a handful of structures, so almost every
// node stays in the flat representation forever; the threshold depends
// only on the space's content, so promotion is deterministic.
const storeSmallMax = 16

// storeIndex is the big-mode machinery: one slot per tuple under its id,
// plus per-kind and per-(kind, name) arrival-ordered id lists — the
// shapes every propagation hook and application query uses — so
// selective reads do not scan the whole space.
//
// Iteration over the id lists may encounter tombstones (zero ids), which
// miss in byID; every other listed id is stored.
type storeIndex struct {
	byID       map[tuple.ID]storeSlot
	order      idList
	byKind     map[string]*idList
	byKindName map[string]*idList
}

// store is a node's local tuple space: the set of tuple copies currently
// stored at the node, in arrival order. It performs no locking; the
// Node serializes access.
//
// The space starts in small mode — a flat arrival-ordered slice scanned
// linearly — and promotes to the indexed representation once it exceeds
// storeSmallMax entries. Small mode costs ~64 bytes per tuple and zero
// map buckets, which at emulation scale (hundreds of thousands of nodes
// each storing a few tuples) is the difference between fitting in RAM
// and not; big mode keeps large spaces' selective reads sublinear. A
// promoted space never demotes, so pointers and iteration semantics
// stay simple.
type store struct {
	flat []storeEnt
	big  *storeIndex
}

func kindNameKey(kind, name string) string {
	return kind + "\x00" + name
}

func indexKeys(t tuple.Tuple, name string) (kind, kindName string) {
	kind = t.Kind()
	return kind, kindNameKey(kind, name)
}

// promote moves a small-mode space onto the indexed representation.
func (s *store) promote() {
	s.big = &storeIndex{
		byID:       make(map[tuple.ID]storeSlot, len(s.flat)*2),
		byKind:     make(map[string]*idList),
		byKindName: make(map[string]*idList),
	}
	for _, e := range s.flat {
		s.indexPut(e)
	}
	s.flat = nil
}

// indexPut files a new tuple at the end of its three lists.
func (s *store) indexPut(e storeEnt) {
	kind, kn := indexKeys(e.t, e.name)
	slot := storeSlot{t: e.t, hop: e.hop}
	for which, l := range [3]*idList{&s.big.order, listFor(s.big.byKind, kind), listFor(s.big.byKindName, kn)} {
		slot.pos[which] = int32(len(l.ids))
		l.ids = append(l.ids, e.id)
	}
	s.big.byID[e.id] = slot
}

func listFor(m map[string]*idList, key string) *idList {
	l, ok := m[key]
	if !ok {
		l = &idList{}
		m[key] = l
	}
	return l
}

// setPos records that id now sits at position i of its which list.
func (s *store) setPos(id tuple.ID, which, i int) {
	slot := s.big.byID[id]
	slot.pos[which] = int32(i)
	s.big.byID[id] = slot
}

// unlist tombstones position i of l, one of the lists slots record at
// which, and compacts l once tombstones dominate.
func (s *store) unlist(l *idList, which int, i int32) {
	l.ids[i] = tuple.ID{}
	l.dead++
	if l.dead <= 8 || l.dead*2 <= len(l.ids) {
		return
	}
	live := l.ids[:0]
	for _, id := range l.ids {
		if !id.IsZero() {
			s.setPos(id, which, len(live))
			live = append(live, id)
		}
	}
	l.ids, l.dead = live, 0
}

// refile moves a stored id from one which list to the end of another:
// its kind or name changed.
func (s *store) refile(id tuple.ID, which int, from, to *idList) {
	s.unlist(from, which, s.big.byID[id].pos[which])
	to.ids = append(to.ids, id)
	s.setPos(id, which, len(to.ids)-1)
}

// put inserts or replaces the copy for t.ID(), accepted hop hops from
// its source: a parked copy's hop is kept only here (see stateTable.park).
func (s *store) put(t tuple.Tuple, hop int32) {
	e := newStoreEnt(t, hop)
	id := e.id
	if s.big == nil {
		for i := range s.flat {
			if s.flat[i].id == id {
				s.flat[i] = e
				return
			}
		}
		if len(s.flat) < storeSmallMax {
			s.flat = append(s.flat, e)
			return
		}
		s.promote()
	}
	slot, ok := s.big.byID[id]
	if !ok {
		s.indexPut(e)
		return
	}
	// Replacement keeps the arrival order position. It refiles the id if
	// a key changed (the name field could in principle evolve).
	oldKind, oldKN := indexKeys(slot.t, nameOf(slot.t))
	newKind, newKN := indexKeys(t, e.name)
	slot.t, slot.hop = t, hop
	s.big.byID[id] = slot
	if oldKind != newKind {
		s.refile(id, posKind, s.big.byKind[oldKind], listFor(s.big.byKind, newKind))
	}
	if oldKN != newKN {
		s.refile(id, posKindName, s.big.byKindName[oldKN], listFor(s.big.byKindName, newKN))
	}
}

// get returns the stored copy for id and its hop.
func (s *store) get(id tuple.ID) (tuple.Tuple, int32, bool) {
	if s.big == nil {
		for i := range s.flat {
			if s.flat[i].id == id {
				return s.flat[i].t, s.flat[i].hop, true
			}
		}
		return nil, 0, false
	}
	slot, ok := s.big.byID[id]
	return slot.t, slot.hop, ok
}

// remove deletes the copy for id and returns it.
func (s *store) remove(id tuple.ID) (tuple.Tuple, bool) {
	if s.big == nil {
		for i := range s.flat {
			if s.flat[i].id == id {
				t := s.flat[i].t
				s.flat = append(s.flat[:i], s.flat[i+1:]...)
				return t, true
			}
		}
		return nil, false
	}
	slot, ok := s.big.byID[id]
	if !ok {
		return nil, false
	}
	delete(s.big.byID, id)
	kind, kn := indexKeys(slot.t, nameOf(slot.t))
	s.unlist(&s.big.order, posOrder, slot.pos[posOrder])
	s.unlist(s.big.byKind[kind], posKind, slot.pos[posKind])
	s.unlist(s.big.byKindName[kn], posKindName, slot.pos[posKindName])
	return slot.t, true
}

// candidates returns the id list a query for kind — and for name, when
// pinned — needs to inspect, using the narrowest applicable index:
// (kind, name) when both are pinned, kind when only it is, the full
// space otherwise. Big mode only; small mode scans the flat slice
// directly. The returned slice may contain tombstones; callers skip ids
// missing from byID.
func (s *store) candidates(kind, name string, pinned bool) []tuple.ID {
	if kind == "" || strings.HasSuffix(kind, "*") {
		return s.big.order.ids
	}
	if pinned {
		if l := s.big.byKindName[kindNameKey(kind, name)]; l != nil {
			return l.ids
		}
		return nil
	}
	if l := s.big.byKind[kind]; l != nil {
		return l.ids
	}
	return nil
}

// pinnedName reports whether the template requires an exact value for
// the "name" field.
func pinnedName(tpl tuple.Template) (string, bool) {
	for _, p := range tpl.Fields {
		if p.Name == "name" && !p.Any {
			if v, ok := p.Value.(string); ok {
				return v, true
			}
		}
	}
	return "", false
}

// forMatching visits the stored tuples matching tpl in arrival order.
func (s *store) forMatching(tpl tuple.Template, fn func(t tuple.Tuple) bool) {
	if s.big == nil {
		for i := range s.flat {
			if tpl.Matches(s.flat[i].t) && !fn(s.flat[i].t) {
				return
			}
		}
		return
	}
	name, pinned := pinnedName(tpl)
	for _, id := range s.candidates(tpl.Kind, name, pinned) {
		if slot, ok := s.big.byID[id]; ok && tpl.Matches(slot.t) {
			if !fn(slot.t) {
				return
			}
		}
	}
}

// minValue returns the smallest Value among the stored Maintained tuples
// of kind (matched as a template's Kind is) whose "name" field is name,
// with found false when there is none. It clones nothing, and rebuilds
// no content unless kind is a pattern: a small-mode entry carries its
// name, and an exact kind's (kind, name) list holds that name only.
func (s *store) minValue(kind, name string) (best float64, found bool) {
	ofKind := tuple.Template{Kind: kind} // no field patterns: the kind alone
	consider := func(e storeEnt) {
		if e.name != name || !ofKind.MatchesParts(e.t.Kind(), e.id, nil) {
			return
		}
		if name == "" {
			// An empty name also stands for "no string name field",
			// which the template would not match.
			if f, ok := e.t.Content().Get("name"); !ok || f.Kind() != tuple.KindString {
				return
			}
		}
		if m, ok := e.t.(tuple.Maintained); ok && (!found || m.Value() < best) {
			best, found = m.Value(), true
		}
	}
	if s.big == nil {
		for _, e := range s.flat {
			consider(e)
		}
		return best, found
	}
	wild := kind == "" || strings.HasSuffix(kind, "*") // candidates is then the whole space
	for _, id := range s.candidates(kind, name, true) {
		if slot, ok := s.big.byID[id]; ok {
			e := storeEnt{id: id, name: name, t: slot.t}
			if wild {
				e.name = nameOf(slot.t)
			}
			consider(e)
		}
	}
	return best, found
}

// read returns clones of the stored tuples matching tpl, in arrival
// order. Clones keep callers from mutating the space through shared
// content slices.
func (s *store) read(tpl tuple.Template) []tuple.Tuple {
	var out []tuple.Tuple
	s.forMatching(tpl, func(t tuple.Tuple) bool {
		c, err := tuple.DefaultRegistry.Clone(t)
		if err != nil {
			// The kind is unregistered (locally-constructed tuple);
			// fall back to sharing the instance.
			c = t
		}
		out = append(out, c)
		return true
	})
	return out
}

// readOne returns a clone of the first stored tuple matching tpl.
func (s *store) readOne(tpl tuple.Template) (tuple.Tuple, bool) {
	var got tuple.Tuple
	s.forMatching(tpl, func(t tuple.Tuple) bool {
		got = t
		return false
	})
	if got == nil {
		return nil, false
	}
	c, err := tuple.DefaultRegistry.Clone(got)
	if err != nil {
		c = got
	}
	return c, true
}

// readRaw returns the stored instances matching tpl without cloning,
// for engine-internal use.
func (s *store) readRaw(tpl tuple.Template) []tuple.Tuple {
	var out []tuple.Tuple
	s.forMatching(tpl, func(t tuple.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// ids returns the stored ids in arrival order (a copy).
func (s *store) ids() []tuple.ID {
	return s.appendIDs(nil)
}

// appendIDs fills buf (reset to zero length) with the stored ids in
// arrival order and returns it, letting hot loops reuse one scratch
// slice instead of copying the order on every pass. The result is a
// snapshot: callers may remove tuples while iterating it.
func (s *store) appendIDs(buf []tuple.ID) []tuple.ID {
	buf = buf[:0]
	if s.big == nil {
		for i := range s.flat {
			buf = append(buf, s.flat[i].id)
		}
		return buf
	}
	for _, id := range s.big.order.ids {
		if !id.IsZero() {
			buf = append(buf, id)
		}
	}
	return buf
}

// size returns the number of stored tuples.
func (s *store) size() int {
	if s.big == nil {
		return len(s.flat)
	}
	return len(s.big.byID)
}
