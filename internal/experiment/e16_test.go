package experiment

import "testing"

// TestE16QuickShapes checks the Quick-scale memory experiment: the
// gradient must settle exactly and the footprint metrics must be
// populated.
func TestE16QuickShapes(t *testing.T) {
	r := RunE16N(1_024)
	if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
		t.Fatalf("oracle mismatch: err=%v missing=%d extra=%d", r.GradErr, r.Missing, r.Extra)
	}
	if r.Rounds <= 0 || r.Rounds >= settleBudget {
		t.Errorf("rounds = %d", r.Rounds)
	}
	if r.LiveHeapBytes == 0 || r.HeapPerNode <= 0 {
		t.Errorf("heap not measured: live=%d perNode=%v", r.LiveHeapBytes, r.HeapPerNode)
	}
	res := RunE16(Quick)
	if res.Metrics["grad_err_n1024"] != 0 {
		t.Errorf("quick grad_err = %v", res.Metrics["grad_err_n1024"])
	}
	if res.Metrics["heap_per_node_n1024"] <= 0 {
		t.Errorf("quick heap_per_node = %v", res.Metrics["heap_per_node_n1024"])
	}
}

// e16HeapBudgetPerNode is the memory-regression bar: live heap per node
// for a settled 10k-node gradient world. The columnar layout measures
// ~3.5 KiB/node (slab states + small-mode stores + sorted peer rows +
// cached announcement bytes; the pre-refactor map-of-pointers layout
// was ~7.0 KiB/node); the budget adds ~30% headroom for allocator jitter so the
// guard trips on regressions, not noise.
const e16HeapBudgetPerNode = 4_600

// TestE16MemBudget is the regression guard for the columnar engine
// state: a settled 10k-node world must stay under the pinned live-heap
// budget per node.
func TestE16MemBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node settle in -short mode")
	}
	r := RunE16N(10_000)
	if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
		t.Fatalf("oracle mismatch: err=%v missing=%d extra=%d", r.GradErr, r.Missing, r.Extra)
	}
	if r.HeapPerNode > e16HeapBudgetPerNode {
		t.Errorf("live heap = %.0f B/node, budget %d B/node (total %.1f MiB over 10k nodes)",
			r.HeapPerNode, e16HeapBudgetPerNode, float64(r.LiveHeapBytes)/(1<<20))
	}
	t.Logf("10k nodes: %.0f B/node live heap (%.1f MiB), peak RSS %.1f MiB",
		r.HeapPerNode, float64(r.LiveHeapBytes)/(1<<20), r.PeakRSSMB)
}
