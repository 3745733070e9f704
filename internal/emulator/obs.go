package emulator

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tota/internal/core"
	"tota/internal/obs"
	"tota/internal/transport"
)

// Rollup is one emulation-wide telemetry snapshot: the per-round
// aggregation of node stats, radio traffic, topology churn and queue
// depth that experiments and the tota-emu dashboard report. The metric
// tags name the emulation-only series RegisterMetrics exposes.
type Rollup struct {
	Tick         int     `json:"tick" metric:"tota_emu_tick" help:"Emulation tick of the published rollup."`
	Time         float64 `json:"time" metric:"tota_emu_time" help:"Simulated time of the published rollup."`
	Nodes        int     `json:"nodes" metric:"tota_emu_nodes" help:"Nodes in the topology."`
	Edges        int     `json:"edges" metric:"tota_emu_edges" help:"Links in the topology."`
	Inflight     int     `json:"inflight" metric:"tota_emu_inflight" help:"Radio packets in flight."`
	ChurnAdds    int64   `json:"churn_adds" metric:"tota_emu_churn_adds_total" help:"Links that appeared (mobility, edits)."`
	ChurnRemoves int64   `json:"churn_removes" metric:"tota_emu_churn_removes_total" help:"Links that disappeared (mobility, edits, crashes)."`
	StoreSize    int     `json:"store_size" metric:"tota_emu_store_size" help:"Stored tuples across all nodes."`
	// Stats is the field-wise sum of every node's middleware counters.
	Stats core.Stats `json:"stats"`
	// Net is the radio's traffic counters.
	Net transport.Stats `json:"net"`
	// MemRSSBytes and MemPeakRSSBytes are the emulating process's
	// resident set and its high-water mark (VmRSS / VmHWM; zero on
	// platforms without /proc). BytesPerNode divides the current RSS
	// by the node count — the scale experiments' headline footprint
	// figure. Reading them never influences emulation, so seeded runs
	// stay bit-identical with or without observation.
	MemRSSBytes     uint64  `json:"mem_rss_bytes,omitempty"`
	MemPeakRSSBytes uint64  `json:"mem_peak_rss_bytes,omitempty"`
	BytesPerNode    float64 `json:"bytes_per_node,omitempty" metric:"tota_emu_bytes_per_node" help:"Resident bytes per emulated node."`
}

// Rollup computes a fresh emulation-wide snapshot. It walks the node
// map, so it must be called from the driving goroutine (between Ticks),
// never concurrently with one — live scrapes read the cached copy
// published by Tick instead (see RegisterMetrics).
func (w *World) Rollup() Rollup {
	r := Rollup{
		Tick:         w.ticks,
		Time:         w.time,
		Nodes:        w.graph.Len(),
		Edges:        w.graph.EdgeCount(),
		Inflight:     w.sim.Pending(),
		ChurnAdds:    w.churnAdds.Load(),
		ChurnRemoves: w.churnRemoves.Load(),
		Net:          w.sim.Stats(),
	}
	r.Stats = w.sumNodes(&r.StoreSize)
	r.MemRSSBytes, r.MemPeakRSSBytes = obs.ReadProcRSS()
	if r.Nodes > 0 {
		r.BytesPerNode = float64(r.MemRSSBytes) / float64(r.Nodes)
	}
	return r
}

// PublishRollup caches the current rollup for lock-free consumption by
// registered gauges. Tick calls it automatically once RegisterMetrics
// has been used; drivers that step the radio directly (Settle loops)
// should call it whenever they want scrapes to advance.
func (w *World) PublishRollup() {
	r := w.Rollup()
	w.lastRollup.Store(&r)
}

// cachedRollup returns the last published rollup (zero before the
// first publication).
func (w *World) cachedRollup() Rollup {
	if r := w.lastRollup.Load(); r != nil {
		return *r
	}
	return Rollup{}
}

// RegisterMetrics exposes the emulation on a telemetry registry: its
// topology and queue series, and the node and radio counter families
// under the names a single node exports, summed over nodes. All of
// these read the rollup cached by the last Tick/PublishRollup, so
// scrapes never race the stepping goroutine.
func (w *World) RegisterMetrics(reg *obs.Registry) {
	w.obsOn.Store(true)
	w.PublishRollup()
	obs.RegisterStats(reg, w.cachedRollup)
	obs.RegisterStats(reg, func() core.Stats { return w.cachedRollup().Stats })
	obs.RegisterStats(reg, func() transport.Stats { return w.cachedRollup().Net })
	reg.CounterFunc("tota_emu_radio_rounds_total", "Radio rounds stepped (includes Settle drains).", func() float64 {
		return float64(w.sim.Rounds())
	})
	// Wall-clock throughput series. These are the only metrics that read
	// the wall clock, and only at observation points — emulation
	// behavior itself never consults it, so seeded runs stay
	// bit-identical whether or not metrics are registered.
	w.tickSeconds.Store(reg.Histogram("tota_emu_tick_seconds", "Wall-clock duration of one emulation tick.", obs.ExpBuckets(1e-5, 2, 22)))
	reg.GaugeFunc("tota_emu_rounds_per_s", "Radio rounds per wall-clock second, differentiated scrape to scrape (0 on the first scrape).", func() float64 {
		cur := &rateSample{rounds: w.sim.Rounds(), at: time.Now()}
		prev := w.lastRate.Swap(cur)
		if prev == nil {
			return 0
		}
		dt := cur.at.Sub(prev.at).Seconds()
		if dt <= 0 {
			return 0
		}
		return float64(cur.rounds-prev.rounds) / dt
	})
}

// Dashboard renders a rollup as one compact text line — the periodic
// emulator dashboard (`tota-emu -dash N`).
func (r Rollup) Dashboard() string {
	line := fmt.Sprintf(
		"[tick %d t=%.1f] nodes=%d edges=%d inflight=%d churn=+%d/-%d stored=%d | in=%d dup=%d repair=%d withdraw=%d ttl=%d sendErr=%d | frames=%d digests=%d pulls=%d suppressed=%d | suspect=%d/%d pullBackoff=%d | agg epochs=%d partials=%d results=%d | radio sent=%d dropped=%d corrupt=%d blocked=%d",
		r.Tick, r.Time, r.Nodes, r.Edges, r.Inflight, r.ChurnAdds, r.ChurnRemoves, r.StoreSize,
		r.Stats.PacketsIn, r.Stats.DupDropped, r.Stats.MaintAdopt, r.Stats.MaintDrop,
		r.Stats.TTLDropped, r.Stats.SendErrors,
		r.Stats.FramesOut, r.Stats.DigestsOut, r.Stats.PullsOut, r.Stats.RefreshSuppressed,
		r.Stats.Suspected, r.Stats.SuspectRecovered, r.Stats.PullsSuppressed,
		r.Stats.QueryEpochs, r.Stats.PartialsOut, r.Stats.AggResults,
		r.Net.Sent, r.Net.Dropped, r.Net.Corrupted, r.Net.Blocked)
	if r.MemRSSBytes > 0 {
		line += fmt.Sprintf(" | mem rss=%.1fMiB peak=%.1fMiB b/node=%.0f",
			float64(r.MemRSSBytes)/(1<<20), float64(r.MemPeakRSSBytes)/(1<<20), r.BytesPerNode)
	}
	return line
}

// Report is the final aggregated JSON artifact a tota-emu run emits:
// the scenario label, the periodic rollups, and the final state.
type Report struct {
	Scenario string   `json:"scenario"`
	Rollups  []Rollup `json:"rollups,omitempty"`
	Final    Rollup   `json:"final"`
}

// WriteJSON renders the report, indented.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
