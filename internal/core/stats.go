package core

// counters declares each node counter once: its field, the metric it is
// exposed as (obs.RegisterStats reads the tags) and its help text. Stats
// instantiates it with int64 snapshots; a node's live set with
// atomic.Int64, mutated under the engine lock (so per-node sequences stay
// deterministic) yet readable by telemetry mid-step without taking it.
// FramesOut omits a flush run of one message, which goes out bare; a
// received frame's sub-messages count toward PacketsIn one by one.
type counters[C any] struct {
	Injected          C `metric:"tota_node_injected_total" help:"Tuples injected through the local API."`
	PacketsIn         C `metric:"tota_node_packets_in_total" help:"Engine packets received from neighbors."`
	Stored            C `metric:"tota_node_stored_total" help:"Tuples entering the local space for the first time."`
	Superseded        C `metric:"tota_node_superseded_total" help:"Stored copies replaced by better ones."`
	DupDropped        C `metric:"tota_node_dup_dropped_total" help:"Duplicate/ignored tuple arrivals (dedup)."`
	TTLDropped        C `metric:"tota_node_ttl_dropped_total" help:"Copies discarded for exceeding MaxHops."`
	Retracted         C `metric:"tota_node_retracted_total" help:"Structures torn down through this node."`
	MaintAdopt        C `metric:"tota_node_repairs_total" help:"Maintenance value adoptions (structure repairs)."`
	MaintDrop         C `metric:"tota_node_withdrawals_total" help:"Maintenance withdrawals of unsupported copies."`
	Broadcasts        C `metric:"tota_node_broadcasts_total" help:"Engine-initiated broadcasts."`
	Unicasts          C `metric:"tota_node_unicasts_total" help:"Engine-initiated unicasts (newcomer catch-up)."`
	SendErrors        C `metric:"tota_node_send_errors_total" help:"Transport send failures."`
	DecodeErrors      C `metric:"tota_node_decode_errors_total" help:"Undecodable packets."`
	Events            C `metric:"tota_node_events_total" help:"Events dispatched to reactions."`
	Expired           C `metric:"tota_node_expired_total" help:"Stored copies removed by lease expiry."`
	FramesOut         C `metric:"tota_frames_out_total" help:"Multi-message batch frames sent."`
	FramesIn          C `metric:"tota_frames_in_total" help:"Batch frames received."`
	DigestsOut        C `metric:"tota_digests_out_total" help:"Anti-entropy digest messages sent by refresh."`
	DigestsIn         C `metric:"tota_digests_in_total" help:"Digest messages received."`
	PullsOut          C `metric:"tota_pulls_out_total" help:"Anti-entropy pull requests sent."`
	PullsIn           C `metric:"tota_pulls_in_total" help:"Pull requests received."`
	RefreshAnnounced  C `metric:"tota_refresh_announced_total" help:"Tuples re-sent in full by refresh (announcement changed)."`
	RefreshSuppressed C `metric:"tota_refresh_suppressed_total" help:"Tuples refresh advertised by digest instead of full bytes."`
	Suspected         C `metric:"tota_suspected_total" help:"Maintained copies that entered the suspicion grace window."`
	SuspectRecovered  C `metric:"tota_suspect_recovered_total" help:"Suspicions cancelled by returning support."`
	PullsSuppressed   C `metric:"tota_pulls_suppressed_total" help:"Anti-entropy pulls skipped by backoff."`
	QueryEpochs       C `metric:"tota_query_epochs_total" help:"Convergecast epochs started by locally sourced queries."`
	PartialsOut       C `metric:"tota_partials_out_total" help:"Partial aggregates sent up parent links."`
	PartialsIn        C `metric:"tota_partials_in_total" help:"Partial aggregates received from children."`
	PartialsCombined  C `metric:"tota_partials_combined_total" help:"Child partials folded into local aggregates."`
	AggResults        C `metric:"tota_agg_results_total" help:"Convergecast results computed at query sources."`
}

// fields lists c's counters in declaration order (a test holds it to
// the struct).
func (c *counters[C]) fields() [31]*C {
	return [...]*C{
		&c.Injected, &c.PacketsIn, &c.Stored, &c.Superseded, &c.DupDropped,
		&c.TTLDropped, &c.Retracted, &c.MaintAdopt, &c.MaintDrop,
		&c.Broadcasts, &c.Unicasts, &c.SendErrors, &c.DecodeErrors,
		&c.Events, &c.Expired, &c.FramesOut, &c.FramesIn,
		&c.DigestsOut, &c.DigestsIn, &c.PullsOut, &c.PullsIn,
		&c.RefreshAnnounced, &c.RefreshSuppressed, &c.Suspected,
		&c.SuspectRecovered, &c.PullsSuppressed, &c.QueryEpochs,
		&c.PartialsOut, &c.PartialsIn, &c.PartialsCombined, &c.AggResults,
	}
}

// Stats is a snapshot of the middleware-level activity of one node;
// experiments aggregate these across the network to report overheads
// and repair costs. Obtain one with Node.Stats. Its fields are declared,
// with their metric names and meanings, in counters.
type Stats counters[int64]

func (s *Stats) fields() [31]*int64 { return (*counters[int64])(s).fields() }

// Add returns the field-wise sum of two stats snapshots.
func (s Stats) Add(o Stats) Stats {
	sum, add := s.fields(), o.fields()
	for i := range sum {
		*sum[i] += *add[i]
	}
	return s
}
