package pattern

import (
	"math"
	"testing"

	"tota/internal/space"
	"tota/internal/tuple"
)

// fakeStore is a LocalStore stub over a fixed tuple list.
type fakeStore struct {
	tuples []tuple.Tuple
}

func (f *fakeStore) Read(tpl tuple.Template) []tuple.Tuple { return tpl.Filter(f.tuples) }

func (f *fakeStore) Delete(tpl tuple.Template) []tuple.Tuple {
	var kept, out []tuple.Tuple
	for _, t := range f.tuples {
		if tpl.Matches(t) {
			out = append(out, t)
		} else {
			kept = append(kept, t)
		}
	}
	f.tuples = kept
	return out
}

// MinValue is the template-read definition of the sensing primitive.
func (f *fakeStore) MinValue(kind, name string) (float64, bool) {
	var best float64
	found := false
	for _, t := range f.Read(ByName(kind, name)) {
		if m, ok := t.(tuple.Maintained); ok && (!found || m.Value() < best) {
			best, found = m.Value(), true
		}
	}
	return best, found
}

func ctxAt(self tuple.NodeID, hop int, store tuple.LocalStore) *tuple.Ctx {
	return &tuple.Ctx{Self: self, From: "prev", Hop: hop, Store: store}
}

func ctxWithPos(hop int, p space.Point) *tuple.Ctx {
	return &tuple.Ctx{Self: "n", From: "prev", Hop: hop, Pos: p, HasPos: true}
}

func roundTrip(t *testing.T, orig tuple.Tuple) tuple.Tuple {
	t.Helper()
	data, err := tuple.Encode(orig)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := tuple.Decode(tuple.DefaultRegistry, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind() != orig.Kind() || got.ID() != orig.ID() {
		t.Fatalf("round trip changed identity: %v/%v", got.Kind(), got.ID())
	}
	if !got.Content().Equal(orig.Content()) {
		t.Fatalf("round trip changed content:\n got %v\nwant %v", got.Content(), orig.Content())
	}
	return got
}

func TestGradientRoundTripAndAccessors(t *testing.T) {
	g := NewGradient("field", tuple.S("info", "hello")).Bounded(10).WithStep(2)
	g.Val = 6
	g.SetID(tuple.ID{Node: "src", Seq: 1})
	got := roundTrip(t, g).(*Gradient)
	if got.Name != "field" || got.Val != 6 || got.StepSize != 2 || got.Scope != 10 {
		t.Errorf("decoded gradient = %+v", got)
	}
	if got.Payload.GetString("info") != "hello" {
		t.Errorf("payload lost: %v", got.Payload)
	}
	if got.Hops() != 3 {
		t.Errorf("Hops = %d, want 3", got.Hops())
	}
}

func TestGradientHooks(t *testing.T) {
	g := NewGradient("f").Bounded(3)
	g.Val = 3
	if !g.ShouldStore(nil) {
		t.Error("boundary copy not stored")
	}
	if g.ShouldPropagate(nil) {
		t.Error("boundary copy propagated")
	}
	g.Val = 2
	if !g.ShouldPropagate(nil) {
		t.Error("interior copy not propagated")
	}
	g.Val = 3.5
	if g.ShouldStore(nil) {
		t.Error("out-of-scope copy stored")
	}

	evolved, ok := NewGradient("f").Evolve(nil).(*Gradient)
	if !ok || evolved.Val != 1 {
		t.Errorf("Evolve = %v", evolved)
	}

	lower := NewGradient("f")
	lower.Val = 1
	higher := NewGradient("f")
	higher.Val = 2
	if !lower.Supersedes(higher) || higher.Supersedes(lower) {
		t.Error("Supersedes not min-wins")
	}
	if lower.Supersedes(NewFlood("f")) {
		t.Error("Supersedes accepted foreign kind")
	}
}

func TestGradientStepGuard(t *testing.T) {
	g := NewGradient("f").WithStep(-1)
	if g.Step() != 1 {
		t.Errorf("Step() = %v, want guard 1", g.Step())
	}
}

func TestGradientsAt(t *testing.T) {
	a := NewGradient("f")
	a.Val = 5
	b := NewGradient("f")
	b.Val = 2
	other := NewGradient("g")
	other.Val = 1
	st := &fakeStore{tuples: []tuple.Tuple{a, b, other}}
	v, ok := GradientsAt(st, KindGradient, "f")
	if !ok || v != 2 {
		t.Errorf("GradientsAt = %v, %v", v, ok)
	}
	if _, ok := GradientsAt(st, KindGradient, "missing"); ok {
		t.Error("found missing gradient")
	}
	if _, ok := GradientsAt(nil, KindGradient, "f"); ok {
		t.Error("nil store reported a gradient")
	}
}

func TestFloodTTL(t *testing.T) {
	f := NewFlood("news", tuple.S("headline", "x")).Within(3)
	f.SetID(tuple.ID{Node: "s", Seq: 2})
	got := roundTrip(t, f).(*Flood)
	if got.TTL != 3 {
		t.Errorf("TTL = %d", got.TTL)
	}
	tests := []struct {
		hop            int
		store, forward bool
	}{
		{hop: 0, store: true, forward: true},
		{hop: 2, store: true, forward: true},
		{hop: 3, store: true, forward: false},
		{hop: 4, store: false, forward: false},
	}
	for _, tt := range tests {
		ctx := ctxAt("n", tt.hop, nil)
		if got.ShouldStore(ctx) != tt.store {
			t.Errorf("hop %d: store = %v", tt.hop, !tt.store)
		}
		if got.ShouldPropagate(ctx) != tt.forward {
			t.Errorf("hop %d: forward = %v", tt.hop, !tt.forward)
		}
	}
	unbounded := NewFlood("all")
	if !unbounded.ShouldPropagate(ctxAt("n", 1000, nil)) {
		t.Error("unbounded flood stopped")
	}
}

func TestSpatialScoping(t *testing.T) {
	s := NewSpatial("here", 10, tuple.S("what", "printer"))
	injectCtx := ctxWithPos(0, space.Point{X: 5, Y: 5})
	injectCtx.From = injectCtx.Self
	stamped := s.OnInject(injectCtx).(*Spatial)
	if stamped.Src != (space.Point{X: 5, Y: 5}) || !stamped.hasSrc {
		t.Fatalf("OnInject did not capture position: %+v", stamped)
	}
	stamped.SetID(tuple.ID{Node: "s", Seq: 3})
	got := roundTrip(t, stamped).(*Spatial)

	inside := ctxWithPos(2, space.Point{X: 8, Y: 5})
	outside := ctxWithPos(2, space.Point{X: 50, Y: 50})
	noFix := ctxAt("n", 2, nil)
	if !got.ShouldStore(inside) || !got.ShouldPropagate(inside) {
		t.Error("in-range node rejected spatial tuple")
	}
	if got.ShouldStore(outside) || got.ShouldPropagate(outside) {
		t.Error("out-of-range node accepted spatial tuple")
	}
	if got.ShouldStore(noFix) {
		t.Error("node without fix stored spatial tuple")
	}
	if v := got.Evolve(inside).(*Spatial); v.Val != got.Val+1 {
		t.Errorf("Evolve val = %v", v.Val)
	}
	if wv := got.WithValue(4).(*Spatial); wv.Val != 4 || wv.Src != got.Src {
		t.Errorf("WithValue = %+v", wv)
	}
}

func TestSpatialWithoutSourceFixStaysLocal(t *testing.T) {
	s := NewSpatial("here", 10)
	injectCtx := ctxAt("self", 0, nil)
	injectCtx.From = "self"
	stamped := s.OnInject(injectCtx).(*Spatial)
	if stamped.ShouldStore(ctxWithPos(1, space.Point{})) {
		t.Error("spatial tuple without source fix propagated")
	}
	if !stamped.ShouldStore(injectCtx) {
		t.Error("spatial tuple rejected at its own source")
	}
}

func TestDirectionalSector(t *testing.T) {
	d := NewDirectional("east", space.Vector{DX: 1, DY: 0}, math.Pi/4).Within(5)
	injectCtx := ctxWithPos(0, space.Point{X: 0, Y: 0})
	injectCtx.From = injectCtx.Self
	stamped := d.OnInject(injectCtx).(*Directional)
	stamped.SetID(tuple.ID{Node: "s", Seq: 4})
	got := roundTrip(t, stamped).(*Directional)

	ahead := ctxWithPos(1, space.Point{X: 5, Y: 1})
	behind := ctxWithPos(1, space.Point{X: -5, Y: 0})
	farHop := ctxWithPos(6, space.Point{X: 5, Y: 0})
	if !got.ShouldStore(ahead) || !got.ShouldPropagate(ahead) {
		t.Error("node in sector rejected")
	}
	if got.ShouldStore(behind) {
		t.Error("node behind source accepted")
	}
	if got.ShouldStore(farHop) || got.ShouldPropagate(farHop) {
		t.Error("TTL not applied")
	}
}

func TestDownhillDescent(t *testing.T) {
	mk := func(val float64) *fakeStore {
		g := NewGradient("dest")
		g.Val = val
		return &fakeStore{tuples: []tuple.Tuple{g}}
	}
	msg := NewDownhill("dest", tuple.S("body", "hello"))
	msg.SetID(tuple.ID{Node: "s", Seq: 5})
	got := roundTrip(t, msg).(*Downhill)

	// At a node with value 3: downhill from inf, not a destination.
	ctx3 := ctxAt("n3", 1, mk(3))
	ev3 := got.Evolve(ctx3).(*Downhill)
	if ev3.Best != 3 {
		t.Errorf("Best after val-3 node = %v", ev3.Best)
	}
	if ev3.ShouldStore(ctx3) {
		t.Error("stored at intermediate node")
	}
	if !ev3.ShouldPropagate(ctx3) {
		t.Error("did not relay downhill")
	}

	// Copy with Best 3 arriving at an uphill node (value 5): dies.
	ctx5 := ctxAt("n5", 2, mk(5))
	ev5 := ev3.Evolve(ctx5).(*Downhill)
	if ev5.ShouldPropagate(ctx5) {
		t.Error("relayed uphill")
	}

	// At the destination (value 0): delivered, not relayed.
	ctx0 := ctxAt("dst", 3, mk(0))
	ev0 := ev3.Evolve(ctx0).(*Downhill)
	if !ev0.ShouldStore(ctx0) {
		t.Error("not delivered at destination")
	}
	if ev0.ShouldPropagate(ctx0) {
		t.Error("relayed beyond destination")
	}
}

func TestDownhillFloodFallback(t *testing.T) {
	empty := &fakeStore{}
	msg := NewDownhill("dest")
	ctx := ctxAt("n", 1, empty)
	if !msg.ShouldPropagate(ctx) {
		t.Error("no fallback flood")
	}
	if msg.ShouldStore(ctx) {
		t.Error("stored without structure")
	}
	strict := NewDownhill("dest").StrictSlope()
	if strict.ShouldPropagate(ctx) {
		t.Error("strict message flooded")
	}
}

func TestFlockFieldShape(t *testing.T) {
	f := NewFlock("swarm", 3)
	f.SetID(tuple.ID{Node: "s", Seq: 6})
	tests := []struct {
		d    float64
		want float64
	}{
		{0, 3}, {1, 2}, {3, 0}, {5, 2},
	}
	for _, tt := range tests {
		ft := f.WithValue(tt.d).(*Flock)
		if got := ft.FieldValue(); got != tt.want {
			t.Errorf("FieldValue(d=%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
	got := roundTrip(t, f).(*Flock)
	if got.X != 3 {
		t.Errorf("X = %v", got.X)
	}
	if ev := got.Evolve(nil).(*Flock); ev.Val != 1 || ev.X != 3 {
		t.Errorf("Evolve = %+v", ev)
	}
	lo := f.WithValue(1).(*Flock)
	hi := f.WithValue(2).(*Flock)
	if !lo.Supersedes(hi) || hi.Supersedes(lo) {
		t.Error("Flock Supersedes not min-wins")
	}
}

func TestEraserDeletesTargets(t *testing.T) {
	g := NewGradient("victim")
	keep := NewGradient("other")
	st := &fakeStore{tuples: []tuple.Tuple{g, keep}}
	e := NewEraser("cleanup", KindGradient, "victim").Within(4)
	e.SetID(tuple.ID{Node: "s", Seq: 7})
	got := roundTrip(t, e).(*Eraser)

	ctx := ctxAt("n", 1, st)
	got.OnArrive(ctx)
	if len(st.tuples) != 1 || st.tuples[0] != tuple.Tuple(keep) {
		t.Errorf("store after eraser = %v", st.tuples)
	}
	if got.ShouldStore(ctx) {
		t.Error("eraser stored itself")
	}
	if !got.ShouldPropagate(ctx) {
		t.Error("eraser stopped early")
	}
	if got.ShouldPropagate(ctxAt("n", 4, st)) {
		t.Error("eraser ignored TTL")
	}
	got.OnArrive(ctxAt("n", 1, nil)) // nil store must not panic
}

func TestLocalStaysPut(t *testing.T) {
	l := NewLocal("state", tuple.I("count", 3))
	l.SetID(tuple.ID{Node: "s", Seq: 8})
	got := roundTrip(t, l).(*Local)
	if got.ShouldPropagate(nil) {
		t.Error("local tuple propagates")
	}
	if !got.ShouldStore(nil) {
		t.Error("local tuple not stored")
	}
	if got.Payload.GetInt("count") != 3 {
		t.Errorf("payload = %v", got.Payload)
	}
}

func TestByNameTemplate(t *testing.T) {
	g := NewGradient("a")
	if !ByName(KindGradient, "a").Matches(g) {
		t.Error("ByName missed its tuple")
	}
	if ByName(KindGradient, "b").Matches(g) {
		t.Error("ByName matched wrong name")
	}
	if ByName(KindFlood, "a").Matches(g) {
		t.Error("ByName matched wrong kind")
	}
}

func TestSplitMeta(t *testing.T) {
	c := tuple.Content{
		tuple.S("name", "x"),
		tuple.I("payload", 1),
		tuple.F("_val", 2),
		tuple.F("_scope", 3),
	}
	app, meta := SplitMeta(c)
	if len(app) != 2 || len(meta) != 2 {
		t.Fatalf("SplitMeta = %v / %v", app, meta)
	}
	if MetaFloat(meta, "_val", -1) != 2 {
		t.Error("MetaFloat lookup failed")
	}
	if MetaFloat(meta, "_nope", -1) != -1 {
		t.Error("MetaFloat default failed")
	}
	// Decoded input may repeat a meta name: the last occurrence wins, and
	// a last occurrence of the wrong type reads as the default.
	_, meta = SplitMeta(append(c, tuple.F("_val", 5), tuple.S("_scope", "x")))
	if MetaFloat(meta, "_val", -1) != 5 || MetaFloat(meta, "_scope", -1) != -1 {
		t.Errorf("repeated meta names: _val %v, _scope %v; want 5 and the default",
			MetaFloat(meta, "_val", -1), MetaFloat(meta, "_scope", -1))
	}
}

func TestFactoriesRejectMalformedContent(t *testing.T) {
	bad := tuple.Content{tuple.I("notname", 1)}
	for kind := range factories() {
		if kind == KindLocal || kind == KindEraser {
			continue
		}
		if _, err := tuple.DefaultRegistry.New(kind, tuple.ID{Node: "n", Seq: 1}, bad); err == nil {
			t.Errorf("kind %s accepted malformed content", kind)
		}
	}
}
