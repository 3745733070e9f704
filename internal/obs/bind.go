package obs

import (
	"runtime"

	"tota/internal/core"
	"tota/internal/transport"
	"tota/internal/transport/udp"
)

// RegisterNodeStats exposes a middleware node's counters (a core.Stats
// snapshot source, typically node.Stats) as counter series. Snapshots
// are taken at collect time only — nothing is added to the packet path.
func RegisterNodeStats(r *Registry, source func() core.Stats, labels ...Label) {
	bind := func(name, help string, field func(core.Stats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(field(source())) }, labels...)
	}
	bind("tota_node_injected_total", "Tuples injected through the local API.", func(s core.Stats) int64 { return s.Injected })
	bind("tota_node_packets_in_total", "Engine packets received from neighbors.", func(s core.Stats) int64 { return s.PacketsIn })
	bind("tota_node_stored_total", "Tuples entering the local space for the first time.", func(s core.Stats) int64 { return s.Stored })
	bind("tota_node_superseded_total", "Stored copies replaced by better ones.", func(s core.Stats) int64 { return s.Superseded })
	bind("tota_node_dup_dropped_total", "Duplicate/ignored tuple arrivals (dedup).", func(s core.Stats) int64 { return s.DupDropped })
	bind("tota_node_ttl_dropped_total", "Copies discarded for exceeding MaxHops.", func(s core.Stats) int64 { return s.TTLDropped })
	bind("tota_node_retracted_total", "Structures torn down through this node.", func(s core.Stats) int64 { return s.Retracted })
	bind("tota_node_repairs_total", "Maintenance value adoptions (structure repairs).", func(s core.Stats) int64 { return s.MaintAdopt })
	bind("tota_node_withdrawals_total", "Maintenance withdrawals of unsupported copies.", func(s core.Stats) int64 { return s.MaintDrop })
	bind("tota_node_broadcasts_total", "Engine-initiated broadcasts.", func(s core.Stats) int64 { return s.Broadcasts })
	bind("tota_node_unicasts_total", "Engine-initiated unicasts (newcomer catch-up).", func(s core.Stats) int64 { return s.Unicasts })
	bind("tota_node_send_errors_total", "Transport send failures.", func(s core.Stats) int64 { return s.SendErrors })
	bind("tota_node_decode_errors_total", "Undecodable packets.", func(s core.Stats) int64 { return s.DecodeErrors })
	bind("tota_node_events_total", "Events dispatched to reactions.", func(s core.Stats) int64 { return s.Events })
	bind("tota_node_denied_total", "Operations rejected by the access policy.", func(s core.Stats) int64 { return s.Denied })
	bind("tota_node_expired_total", "Stored copies removed by lease expiry.", func(s core.Stats) int64 { return s.Expired })
	bind("tota_frames_out_total", "Multi-message batch frames sent.", func(s core.Stats) int64 { return s.FramesOut })
	bind("tota_frames_in_total", "Batch frames received.", func(s core.Stats) int64 { return s.FramesIn })
	bind("tota_digests_out_total", "Anti-entropy digest messages sent by refresh.", func(s core.Stats) int64 { return s.DigestsOut })
	bind("tota_digests_in_total", "Digest messages received.", func(s core.Stats) int64 { return s.DigestsIn })
	bind("tota_pulls_out_total", "Anti-entropy pull requests sent.", func(s core.Stats) int64 { return s.PullsOut })
	bind("tota_pulls_in_total", "Pull requests received.", func(s core.Stats) int64 { return s.PullsIn })
	bind("tota_refresh_announced_total", "Tuples re-sent in full by refresh (announcement changed).", func(s core.Stats) int64 { return s.RefreshAnnounced })
	bind("tota_refresh_suppressed_total", "Tuples refresh advertised by digest instead of full bytes.", func(s core.Stats) int64 { return s.RefreshSuppressed })
	bind("tota_suspected_total", "Maintained copies that entered the suspicion grace window.", func(s core.Stats) int64 { return s.Suspected })
	bind("tota_suspect_recovered_total", "Suspicions cancelled by returning support.", func(s core.Stats) int64 { return s.SuspectRecovered })
	bind("tota_pulls_suppressed_total", "Anti-entropy pulls skipped by backoff.", func(s core.Stats) int64 { return s.PullsSuppressed })
	bind("tota_query_epochs_total", "Convergecast epochs started by locally sourced queries.", func(s core.Stats) int64 { return s.QueryEpochs })
	bind("tota_queries_in_total", "Query epoch-wave messages received.", func(s core.Stats) int64 { return s.QueriesIn })
	bind("tota_partials_out_total", "Partial aggregates sent up parent links.", func(s core.Stats) int64 { return s.PartialsOut })
	bind("tota_partials_in_total", "Partial aggregates received from children.", func(s core.Stats) int64 { return s.PartialsIn })
	bind("tota_partials_combined_total", "Child partials folded into local aggregates.", func(s core.Stats) int64 { return s.PartialsCombined })
	bind("tota_agg_results_total", "Convergecast results computed at query sources.", func(s core.Stats) int64 { return s.AggResults })
}

// RegisterStoreSize exposes the local tuple-space size.
func RegisterStoreSize(r *Registry, size func() int, labels ...Label) {
	r.GaugeFunc("tota_node_store_size", "Tuples currently in the local space.",
		func() float64 { return float64(size()) }, labels...)
}

// RegisterSimStats exposes a simulated radio's traffic counters and
// in-flight queue gauge.
func RegisterSimStats(r *Registry, s *transport.Sim, labels ...Label) {
	bind := func(name, help string, field func(transport.Stats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(field(s.Stats())) }, labels...)
	}
	bind("tota_radio_sent_total", "Point-to-point transmissions (a broadcast to k neighbors counts k).", func(st transport.Stats) int64 { return st.Sent })
	bind("tota_radio_broadcasts_total", "Broadcast operations.", func(st transport.Stats) int64 { return st.Broadcasts })
	bind("tota_radio_delivered_total", "Packets handed to handlers.", func(st transport.Stats) int64 { return st.Delivered })
	bind("tota_radio_dropped_total", "Packets lost in flight.", func(st transport.Stats) int64 { return st.Dropped })
	bind("tota_radio_corrupted_total", "Packets delivered with injected byte flips (fault injection).", func(st transport.Stats) int64 { return st.Corrupted })
	bind("tota_radio_blocked_total", "Packets discarded at a partition cut (fault injection).", func(st transport.Stats) int64 { return st.Blocked })
	bind("tota_radio_shed_total", "Packets shed by the bounded inbound queue.", func(st transport.Stats) int64 { return st.Shed })
	r.GaugeFunc("tota_radio_inflight", "Packets currently in flight.",
		func() float64 { return float64(s.Pending()) }, labels...)
}

// RegisterUDPStats exposes a UDP transport's socket counters.
func RegisterUDPStats(r *Registry, t *udp.Transport, labels ...Label) {
	bind := func(name, help string, field func(udp.Stats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(field(t.Stats())) }, labels...)
	}
	bind("tota_udp_datagrams_sent_total", "Datagrams written to the socket.", func(s udp.Stats) int64 { return s.Sent })
	bind("tota_udp_send_errors_total", "Socket write failures.", func(s udp.Stats) int64 { return s.SendErrors })
	bind("tota_udp_datagrams_received_total", "Datagrams read from the socket.", func(s udp.Stats) int64 { return s.Received })
	bind("tota_udp_bad_frames_total", "Undecodable frames received.", func(s udp.Stats) int64 { return s.BadFrames })
	bind("tota_udp_hellos_total", "Discovery beacons received.", func(s udp.Stats) int64 { return s.Hellos })
	bind("tota_udp_shed_total", "Inbound packets shed by the bounded staging queue.", func(s udp.Stats) int64 { return s.Shed })
	r.GaugeFunc("tota_udp_neighbors", "Neighbors currently up.",
		func() float64 { return float64(len(t.Neighbors())) }, labels...)
}

// RegisterRuntime exposes Go runtime health gauges (scrape-time
// ReadMemStats; do not scrape at sub-second intervals on hot nodes).
func RegisterRuntime(r *Registry) {
	r.GaugeFunc("tota_go_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("tota_go_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	r.GaugeFunc("tota_go_gc_runs_total", "Completed GC cycles.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})
}
