package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"

	"tota/internal/core"
	"tota/internal/tuple"
)

func ev(kind core.TraceKind, node, idNode string, seq uint64) core.TraceEvent {
	return core.TraceEvent{
		Kind: kind,
		Node: tuple.NodeID(node),
		ID:   tuple.ID{Node: tuple.NodeID(idNode), Seq: seq},
	}
}

func TestJSONLSinkWritesRecords(t *testing.T) {
	var b strings.Builder
	clockVal := 0.0
	s := NewJSONLSink(&b, nil, func() float64 { return clockVal }, 16)
	tr := s.Tracer()

	clockVal = 1
	tr(ev(core.TraceInject, "a", "a", 1))
	clockVal = 3
	tr(core.TraceEvent{
		Kind: core.TraceStore, Node: "b", ID: tuple.ID{Node: "a", Seq: 1},
		TupleKind: "gradient", From: "a", Hop: 2, Value: 2,
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Written() != 2 || s.Dropped() != 0 {
		t.Fatalf("written=%d dropped=%d", s.Written(), s.Dropped())
	}

	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var recs []TraceRecord
	for sc.Scan() {
		var r TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Kind != "inject" || recs[0].T != 1 || recs[0].Node != "a" {
		t.Errorf("inject record = %+v", recs[0])
	}
	if recs[1].Kind != "store" || recs[1].From != "a" || recs[1].Hop != 2 || recs[1].Val != 2 || recs[1].Tuple != "gradient" {
		t.Errorf("store record = %+v", recs[1])
	}
}

// blockingWriter stalls until released, forcing the sink's buffer to
// fill so the drop-counting backpressure is observable.
type blockingWriter struct {
	release chan struct{}
	sink    strings.Builder
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.sink.Write(p)
}

func TestJSONLSinkShedsWhenFull(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{})}
	s := NewJSONLSink(w, nil, nil, 2)
	tr := s.Tracer()
	// The writer goroutine takes one event off the channel and blocks
	// writing it; at most depth more sit in the buffer. Everything
	// beyond that must be shed, not block the engine.
	for i := 0; i < 50; i++ {
		tr(ev(core.TraceDup, "a", "a", uint64(i+1)))
	}
	if s.Dropped() == 0 {
		t.Error("expected drops with a stalled writer")
	}
	close(w.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Written()+s.Dropped() != 50 {
		t.Errorf("written %d + dropped %d != 50", s.Written(), s.Dropped())
	}
}

func TestLatenciesPropagationAndRepair(t *testing.T) {
	reg := NewRegistry()
	now := 0.0
	l := NewLatencies(reg, func() float64 { return now }, RoundBuckets)
	tr := l.Tracer()

	// Propagation: inject at tick 0, stores at ticks 2 and 5.
	tr(ev(core.TraceInject, "a", "a", 1))
	now = 2
	tr(ev(core.TraceStore, "b", "a", 1))
	now = 5
	tr(ev(core.TraceStore, "c", "a", 1))
	// A store at the injecting node itself is not propagation.
	tr(ev(core.TraceStore, "a", "a", 1))
	if got := l.Propagation.Count(); got != 2 {
		t.Errorf("propagation samples = %d, want 2", got)
	}
	if mean := l.Propagation.Mean(); mean != 3.5 {
		t.Errorf("propagation mean = %v, want 3.5", mean)
	}

	// Per-id repair: withdraw at 10, re-store at 13.
	now = 10
	tr(ev(core.TraceWithdraw, "b", "a", 1))
	now = 13
	tr(ev(core.TraceStore, "b", "a", 1))
	if got := l.Repair.Count(); got != 1 {
		t.Fatalf("repair samples = %d, want 1", got)
	}
	if got := l.Repair.Sum(); got != 3 {
		t.Errorf("repair latency = %v, want 3", got)
	}

	// Churn repair: mark at 20, first adoption at 26 samples; the
	// second adoption does not (the mark is consumed).
	now = 20
	l.MarkChurn()
	now = 26
	tr(ev(core.TraceAdopt, "c", "a", 1))
	tr(ev(core.TraceAdopt, "d", "a", 1))
	if got := l.Repair.Count(); got != 2 {
		t.Fatalf("repair samples after churn = %d, want 2", got)
	}
	if got := l.Repair.Sum(); got != 9 {
		t.Errorf("repair latency sum = %v, want 9", got)
	}

	// The registry exposes both histograms.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tota_propagation_latency_count 2", "tota_repair_latency_count 2"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestLatenciesOutOfOrderStore: a store observed before its inject
// (trace streams from different nodes merge in arbitrary order) must
// not sample propagation; once the inject lands, later stores do.
func TestLatenciesOutOfOrderStore(t *testing.T) {
	now := 0.0
	l := NewLatencies(nil, func() float64 { return now }, RoundBuckets)
	tr := l.Tracer()

	tr(ev(core.TraceStore, "b", "a", 1))
	if got := l.Propagation.Count(); got != 0 {
		t.Fatalf("propagation samples before inject = %d, want 0", got)
	}
	now = 1
	tr(ev(core.TraceInject, "a", "a", 1))
	now = 4
	tr(ev(core.TraceStore, "c", "a", 1))
	if got := l.Propagation.Count(); got != 1 {
		t.Fatalf("propagation samples = %d, want 1", got)
	}
	if got := l.Propagation.Sum(); got != 3 {
		t.Errorf("propagation latency = %v, want 3", got)
	}
}

// TestLatenciesDuplicateStores pins the per-event sampling contract:
// every store of a tracked tuple at a non-source node samples, so a
// node re-storing (lease renewal, supersede re-store) contributes one
// sample per store event rather than deduplicating per (tuple, node).
func TestLatenciesDuplicateStores(t *testing.T) {
	now := 0.0
	l := NewLatencies(nil, func() float64 { return now }, RoundBuckets)
	tr := l.Tracer()

	tr(ev(core.TraceInject, "a", "a", 1))
	now = 2
	tr(ev(core.TraceStore, "b", "a", 1))
	now = 6
	tr(ev(core.TraceStore, "b", "a", 1))
	if got := l.Propagation.Count(); got != 2 {
		t.Fatalf("propagation samples = %d, want 2 (one per store event)", got)
	}
	if got := l.Propagation.Sum(); got != 8 {
		t.Errorf("propagation latency sum = %v, want 2+6", got)
	}
}

// TestLatenciesChurnReAdopt: re-marking churn re-arms repair sampling
// (each mark is consumed by exactly one adoption), the latest mark
// wins, and a per-id disturbance takes priority over — and consumes —
// a pending churn mark without double-sampling.
func TestLatenciesChurnReAdopt(t *testing.T) {
	now := 0.0
	l := NewLatencies(nil, func() float64 { return now }, RoundBuckets)
	tr := l.Tracer()

	// Mark, re-mark: the adoption samples against the latest mark.
	l.MarkChurn()
	now = 5
	l.MarkChurn()
	now = 8
	tr(ev(core.TraceAdopt, "b", "a", 1))
	if got, want := l.Repair.Count(), int64(1); got != want {
		t.Fatalf("repair samples = %d, want %d", got, want)
	}
	if got := l.Repair.Sum(); got != 3 {
		t.Errorf("repair latency = %v, want 3 (latest mark wins)", got)
	}
	// The mark is consumed: a second adoption does not sample.
	now = 9
	tr(ev(core.TraceAdopt, "c", "a", 1))
	if got := l.Repair.Count(); got != 1 {
		t.Fatalf("consumed churn mark re-sampled: count = %d", got)
	}
	// Re-adopt after a fresh mark samples again.
	now = 10
	l.MarkChurn()
	now = 12
	tr(ev(core.TraceAdopt, "b", "a", 1))
	if got := l.Repair.Count(); got != 2 {
		t.Fatalf("repair samples after re-mark = %d, want 2", got)
	}

	// A per-id withdrawal outranks a pending churn mark: the adoption
	// samples the withdrawal once and consumes the mark alongside it.
	now = 20
	tr(ev(core.TraceWithdraw, "b", "a", 1))
	now = 21
	l.MarkChurn()
	now = 24
	tr(ev(core.TraceAdopt, "b", "a", 1))
	if got := l.Repair.Count(); got != 3 {
		t.Fatalf("repair samples = %d, want 3 (no double sample)", got)
	}
	if got := l.Repair.Sum(); got != 3+2+4 {
		t.Errorf("repair latency sum = %v, want 9", got)
	}
	now = 25
	tr(ev(core.TraceAdopt, "c", "a", 1))
	if got := l.Repair.Count(); got != 3 {
		t.Errorf("consumed state re-sampled: count = %d", got)
	}
}

// TestLatenciesRetractClearsTracking: teardown and expiry drop the
// tuple's tracking state, so later stores of a revived id do not
// sample against the stale inject time.
func TestLatenciesRetractClearsTracking(t *testing.T) {
	now := 0.0
	l := NewLatencies(nil, func() float64 { return now }, RoundBuckets)
	tr := l.Tracer()

	tr(ev(core.TraceInject, "a", "a", 1))
	now = 3
	tr(ev(core.TraceRetract, "a", "a", 1))
	now = 50
	tr(ev(core.TraceStore, "b", "a", 1))
	if got := l.Propagation.Count(); got != 0 {
		t.Errorf("store after retract sampled: count = %d", got)
	}
}

// TestLatenciesEvictOldest: a tracker that saw more live injections than
// it can hold keeps sampling. Every one of 10,000 inject + remote-store
// pairs samples propagation, the first query result of an evicted id
// goes with it, and no table outgrows the cap.
func TestLatenciesEvictOldest(t *testing.T) {
	const n = 10_000
	now := 0.0
	l := NewLatencies(nil, func() float64 { return now }, RoundBuckets)
	tr := l.Tracer()
	for i := uint64(1); i <= n; i++ {
		now = float64(i)
		tr(ev(core.TraceInject, "a", "a", i))
		tr(ev(core.TraceAggResult, "a", "a", i))
		now++
		tr(ev(core.TraceStore, "b", "a", i))
		tr(ev(core.TraceWithdraw, "c", "a", i))
	}
	if got := l.Propagation.Count(); got != n {
		t.Errorf("propagation samples = %d, want %d", got, n)
	}
	if got := l.QueryResult.Count(); got != n {
		t.Errorf("query result samples = %d, want %d", got, n)
	}
	if got := l.Untracked.Value(); got != n-maxTrackedIDs {
		t.Errorf("Untracked = %d, want %d", got, n-maxTrackedIDs)
	}
	for name, size := range map[string]int{
		"injected": len(l.injected.slot), "disturbed": len(l.disturbed.slot), "resulted": len(l.resulted),
	} {
		if size > maxTrackedIDs {
			t.Errorf("%s holds %d ids, cap %d", name, size, maxTrackedIDs)
		}
	}
	// The oldest ids went first: the newest are tracked, and a withdrawn
	// copy's re-store still samples repair.
	if _, ok := l.injected.get(tuple.ID{Node: "a", Seq: 1}); ok {
		t.Error("the oldest injection is still tracked")
	}
	now = n + 5
	tr(ev(core.TraceStore, "c", "a", n))
	if got := l.Repair.Count(); got != 1 {
		t.Errorf("repair samples = %d, want 1", got)
	}
}

// TestIDClockReputAndDelete: a re-put id becomes the newest entry, and
// its old slot, like a deleted id's, is a hole a later put takes without
// evicting; otherwise a full ring evicts exactly the oldest id held.
func TestIDClockReputAndDelete(t *testing.T) {
	c := newIDClock()
	id := func(i int) tuple.ID { return tuple.ID{Node: "a", Seq: uint64(i)} }
	for i := 1; i <= maxTrackedIDs; i++ {
		if _, ok := c.put(id(i), float64(i)); ok {
			t.Fatalf("put %d of %d evicted", i, maxTrackedIDs)
		}
	}
	c.put(id(2), 100) // evicts id 1; id 2 becomes the newest
	c.del(id(3))
	if old, ok := c.put(id(maxTrackedIDs+1), 0); ok {
		t.Fatalf("the hole of re-put id 2 evicted %v", old)
	}
	if old, ok := c.put(id(maxTrackedIDs+2), 0); ok {
		t.Fatalf("the hole of deleted id 3 evicted %v", old)
	}
	if old, ok := c.put(id(maxTrackedIDs+3), 0); !ok || old != id(4) {
		t.Fatalf("evicted %v, %v; want %v", old, ok, id(4))
	}
	if v, ok := c.get(id(2)); !ok || v != 100 {
		t.Errorf("re-put id = %v, %v; want 100", v, ok)
	}
	if _, ok := c.get(id(1)); ok || len(c.slot) != maxTrackedIDs || len(c.ring) != maxTrackedIDs {
		t.Errorf("holds id 1: %v; %d ids in %d slots", ok, len(c.slot), len(c.ring))
	}
}
