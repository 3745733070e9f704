package emulator

import (
	"io"
	"sync"
	"testing"

	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/topology"
)

// TestStatsReadableMidStep locks in the telemetry contract behind the
// atomic engine counters: Stats, TotalStats and a registered metrics
// scrape may all run on another goroutine while a Tick is delivering
// packets, without a data race (run with -race) and without ever
// observing a monotone counter go backwards.
func TestStatsReadableMidStep(t *testing.T) {
	g := topology.Grid(8, 8, 1)
	w := New(Config{Graph: g, RefreshEvery: 3, Seed: 7})
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	src := topology.NodeName(0)
	if _, err := w.Node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			total := w.TotalStats()
			if total.PacketsIn < prev {
				t.Errorf("PacketsIn went backwards: %d -> %d", prev, total.PacketsIn)
				return
			}
			prev = total.PacketsIn
			_ = w.Node(src).Stats()
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 50; i++ {
		w.Tick(1)
	}
	close(stop)
	wg.Wait()

	if got := w.TotalStats().PacketsIn; got == 0 {
		t.Error("scenario delivered nothing; not a meaningful concurrency check")
	}
}
