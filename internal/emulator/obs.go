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
// depth that experiments and the tota-emu dashboard report.
type Rollup struct {
	// Tick and Time locate the snapshot on the emulation clock.
	Tick int     `json:"tick"`
	Time float64 `json:"time"`
	// Nodes and Edges describe the current topology.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Inflight is the radio's in-flight packet queue depth.
	Inflight int `json:"inflight"`
	// ChurnAdds / ChurnRemoves count cumulative link appearances and
	// disappearances (mobility, scripted edits, crashes).
	ChurnAdds    int64 `json:"churn_adds"`
	ChurnRemoves int64 `json:"churn_removes"`
	// StoreSize is the total number of stored tuples across all nodes.
	StoreSize int `json:"store_size"`
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
	BytesPerNode    float64 `json:"bytes_per_node,omitempty"`
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
	for _, h := range w.graph.AppendSortedHandles(nil) {
		n := w.nodeAt(h)
		if n == nil {
			continue
		}
		r.Stats = r.Stats.Add(n.Stats())
		r.StoreSize += n.StoreSize()
	}
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

// RegisterMetrics exposes the emulation on a telemetry registry:
// topology and queue gauges plus aggregated middleware counters. All
// series read the rollup cached by the last Tick/PublishRollup, so
// scrapes never race the stepping goroutine.
func (w *World) RegisterMetrics(reg *obs.Registry) {
	w.obsOn.Store(true)
	w.PublishRollup()
	gauge := func(name, help string, field func(Rollup) float64) {
		reg.GaugeFunc(name, help, func() float64 { return field(w.cachedRollup()) })
	}
	counter := func(name, help string, field func(Rollup) int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(field(w.cachedRollup())) })
	}
	gauge("tota_emu_tick", "Emulation tick of the published rollup.", func(r Rollup) float64 { return float64(r.Tick) })
	gauge("tota_emu_time", "Simulated time of the published rollup.", func(r Rollup) float64 { return r.Time })
	gauge("tota_emu_nodes", "Nodes in the topology.", func(r Rollup) float64 { return float64(r.Nodes) })
	gauge("tota_emu_edges", "Links in the topology.", func(r Rollup) float64 { return float64(r.Edges) })
	gauge("tota_emu_inflight", "Radio packets in flight.", func(r Rollup) float64 { return float64(r.Inflight) })
	gauge("tota_emu_store_size", "Stored tuples across all nodes.", func(r Rollup) float64 { return float64(r.StoreSize) })
	counter("tota_emu_churn_adds_total", "Links that appeared (mobility, edits).", func(r Rollup) int64 { return r.ChurnAdds })
	counter("tota_emu_churn_removes_total", "Links that disappeared (mobility, edits, crashes).", func(r Rollup) int64 { return r.ChurnRemoves })
	counter("tota_emu_packets_in_total", "Engine packets received, summed over nodes.", func(r Rollup) int64 { return r.Stats.PacketsIn })
	counter("tota_emu_stored_total", "First-time stores, summed over nodes.", func(r Rollup) int64 { return r.Stats.Stored })
	counter("tota_emu_dup_dropped_total", "Duplicate arrivals dropped, summed over nodes.", func(r Rollup) int64 { return r.Stats.DupDropped })
	counter("tota_emu_repairs_total", "Maintenance adoptions, summed over nodes.", func(r Rollup) int64 { return r.Stats.MaintAdopt })
	counter("tota_emu_withdrawals_total", "Maintenance withdrawals, summed over nodes.", func(r Rollup) int64 { return r.Stats.MaintDrop })
	counter("tota_emu_send_errors_total", "Transport send failures, summed over nodes.", func(r Rollup) int64 { return r.Stats.SendErrors })
	counter("tota_emu_frames_out_total", "Batch frames sent, summed over nodes.", func(r Rollup) int64 { return r.Stats.FramesOut })
	counter("tota_emu_digests_out_total", "Digest messages sent, summed over nodes.", func(r Rollup) int64 { return r.Stats.DigestsOut })
	counter("tota_emu_pulls_out_total", "Pull requests sent, summed over nodes.", func(r Rollup) int64 { return r.Stats.PullsOut })
	counter("tota_emu_refresh_suppressed_total", "Refresh announcements suppressed by digests, summed over nodes.", func(r Rollup) int64 { return r.Stats.RefreshSuppressed })
	counter("tota_emu_radio_sent_total", "Radio transmissions.", func(r Rollup) int64 { return r.Net.Sent })
	counter("tota_emu_radio_dropped_total", "Radio packets lost.", func(r Rollup) int64 { return r.Net.Dropped })
	counter("tota_emu_suspected_total", "Maintained copies that entered the suspicion grace window, summed over nodes.", func(r Rollup) int64 { return r.Stats.Suspected })
	counter("tota_emu_suspect_recovered_total", "Suspicions cancelled by returning support, summed over nodes.", func(r Rollup) int64 { return r.Stats.SuspectRecovered })
	counter("tota_emu_pulls_suppressed_total", "Anti-entropy pulls skipped by backoff, summed over nodes.", func(r Rollup) int64 { return r.Stats.PullsSuppressed })
	counter("tota_emu_query_epochs_total", "Convergecast epochs started by query sources, summed over nodes.", func(r Rollup) int64 { return r.Stats.QueryEpochs })
	counter("tota_emu_partials_out_total", "Partial aggregates sent up parent links, summed over nodes.", func(r Rollup) int64 { return r.Stats.PartialsOut })
	counter("tota_emu_partials_combined_total", "Child partials folded into local aggregates, summed over nodes.", func(r Rollup) int64 { return r.Stats.PartialsCombined })
	counter("tota_emu_agg_results_total", "Convergecast results computed at query sources, summed over nodes.", func(r Rollup) int64 { return r.Stats.AggResults })
	counter("tota_emu_radio_corrupted_total", "Radio packets delivered with injected byte flips.", func(r Rollup) int64 { return r.Net.Corrupted })
	counter("tota_emu_radio_blocked_total", "Radio packets discarded at a partition cut.", func(r Rollup) int64 { return r.Net.Blocked })
	counter("tota_emu_radio_shed_total", "Radio packets shed by the bounded inbound queue.", func(r Rollup) int64 { return r.Net.Shed })
	counter("tota_emu_radio_payload_bytes_total", "Radio payload bytes transmitted.", func(r Rollup) int64 { return r.Net.PayloadBytes })
	gauge("tota_emu_mem_rss_bytes", "Process resident set at the published rollup (VmRSS).", func(r Rollup) float64 { return float64(r.MemRSSBytes) })
	gauge("tota_emu_mem_peak_rss_bytes", "Process peak resident set (VmHWM).", func(r Rollup) float64 { return float64(r.MemPeakRSSBytes) })
	gauge("tota_emu_bytes_per_node", "Resident bytes per emulated node.", func(r Rollup) float64 { return r.BytesPerNode })
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
		"[tick %d t=%.1f] nodes=%d edges=%d inflight=%d churn=+%d/-%d stored=%d | in=%d dup=%d repair=%d withdraw=%d ttl=%d sendErr=%d | frames=%d digests=%d pulls=%d suppressed=%d | suspect=%d/%d pullBackoff=%d | agg epochs=%d partials=%d results=%d | radio sent=%d dropped=%d corrupt=%d blocked=%d shed=%d",
		r.Tick, r.Time, r.Nodes, r.Edges, r.Inflight, r.ChurnAdds, r.ChurnRemoves, r.StoreSize,
		r.Stats.PacketsIn, r.Stats.DupDropped, r.Stats.MaintAdopt, r.Stats.MaintDrop,
		r.Stats.TTLDropped, r.Stats.SendErrors,
		r.Stats.FramesOut, r.Stats.DigestsOut, r.Stats.PullsOut, r.Stats.RefreshSuppressed,
		r.Stats.Suspected, r.Stats.SuspectRecovered, r.Stats.PullsSuppressed,
		r.Stats.QueryEpochs, r.Stats.PartialsOut, r.Stats.AggResults,
		r.Net.Sent, r.Net.Dropped, r.Net.Corrupted, r.Net.Blocked, r.Net.Shed)
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
