package topology

import (
	"math/rand"
	"testing"

	"tota/internal/space"
)

// benchMobileRecompute builds a 10k-node random geometric layout, then
// per iteration jitters every node (worst case: the whole dirty set)
// and recomputes, using either the grid-indexed path or the O(n²)
// all-pairs reference.
func benchMobileRecompute(b *testing.B, useGrid bool) {
	const (
		n      = 10_000
		side   = 100.0
		radius = 1.5
	)
	rng := rand.New(rand.NewSource(1))
	g := New()
	pts := make([]space.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = space.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		g.SetPosition(NodeName(i), pts[i])
	}
	recompute := g.RecomputeReference
	if useGrid {
		recompute = g.Recompute
	}
	recompute(radius) // settle the initial edge set outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			pts[j].X += (rng.Float64() - 0.5) * 0.2
			pts[j].Y += (rng.Float64() - 0.5) * 0.2
			g.SetPosition(NodeName(j), pts[j])
		}
		recompute(radius)
	}
}

// BenchmarkRecompute10k is the ISSUE 6 headline comparison: unit-disk
// edge recompute over 10k mobile nodes, grid-indexed vs the old
// all-pairs scan.
func BenchmarkRecompute10k(b *testing.B) {
	b.Run("grid", func(b *testing.B) { benchMobileRecompute(b, true) })
	b.Run("bruteforce", func(b *testing.B) { benchMobileRecompute(b, false) })
}

// newIdle10k lays out 10k random nodes and settles their edges, so a
// further Recompute finds nothing moved.
func newIdle10k() *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New()
	for i := 0; i < 10_000; i++ {
		g.SetPosition(NodeName(i), space.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	g.Recompute(1.5)
	return g
}

// BenchmarkRecomputeIdle10k measures the dirty-set short-circuit: the
// per-tick cost of Recompute when nothing moved.
func BenchmarkRecomputeIdle10k(b *testing.B) {
	g := newIdle10k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Recompute(1.5)
	}
}

// TestRecomputeIdleAllocs holds the short-circuit at the zero
// allocations DESIGN.md §11 cites.
func TestRecomputeIdleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	g := newIdle10k()
	if got := testing.AllocsPerRun(100, func() { g.Recompute(1.5) }); got != 0 {
		t.Errorf("idle Recompute over 10k nodes = %.0f allocs/op, want 0", got)
	}
}
