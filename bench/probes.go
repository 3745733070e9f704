package main

import (
	"fmt"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// Probes call one public function of one layer in a loop, on payloads
// the workload itself produced, and report ns per call. They say what a
// layer's unit of work costs in isolation; the traced run says how much
// of an operation it is.
const (
	probePayloads = 64 // engine packets captured from the traced run
	probeRepeats  = 5  // timed batches per probe; the median is reported
	probeBatch    = 10 * time.Millisecond
	tracedOps     = 2000 // one-in-flight operations of a traced run at the default -seconds
	tracedWarm    = 200  // and its warm-up
)

// probeSink keeps the probed calls' results alive so the compiler
// cannot drop the calls.
var probeSink any

// probeNS returns the median over probeRepeats batches of op's cost in
// ns; the batch size is grown until one batch takes probeBatch.
func probeNS(op func()) float64 {
	n := 1
	for {
		t0 := now()
		for i := 0; i < n; i++ {
			op()
		}
		if now()-t0 >= probeBatch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, probeRepeats)
	for r := range per {
		t0 := now()
		for i := 0; i < n; i++ {
			op()
		}
		per[r] = float64(now()-t0) / float64(n)
	}
	return median(per)
}

// tupleProbes measures the JSON and matching cost of the workload's
// tuple as the gateway and its client pay it.
func tupleProbes(l map[string]float64, t tuple.Tuple, tpl tuple.Template) {
	t.SetID(tuple.ID{Node: "n0", Seq: 1})
	data, err := tuple.MarshalTupleJSON(t)
	if err != nil {
		panic(fmt.Sprintf("probe tuple does not marshal: %v", err)) // the workload's own tuple: a rig bug
	}
	l["tuple.json_bytes"] = float64(len(data))
	l["tuple.marshal_json_ns"] = probeNS(func() { probeSink, _ = tuple.MarshalTupleJSON(t) })
	l["tuple.unmarshal_json_ns"] = probeNS(func() { probeSink, _ = tuple.UnmarshalTupleJSON(tuple.DefaultRegistry, data) })
	l["tuple.match_ns"] = probeNS(func() { probeSink = tpl.Matches(t) })
	ev := gateway.Event{Type: arrivedEvent, Sub: 7, GSeq: 100000, DSeq: 100000, Tuple: data}
	l["gateway.encode_frame_ns"] = probeNS(func() { probeSink, _ = gateway.EncodeFrame(gateway.Frame{Event: &ev}) })
}

// wireProbes measures the engine codec on packets captured from the
// workload.
func wireProbes(l map[string]float64, payloads [][]byte) {
	var msgs []wire.Message
	var bytes float64
	for _, p := range payloads {
		m, err := wire.Decode(tuple.DefaultRegistry, p)
		if err != nil {
			continue
		}
		msgs = append(msgs, m)
		bytes += float64(len(p))
	}
	if len(msgs) == 0 {
		return
	}
	l["wire.msg_bytes"] = bytes / float64(len(msgs))
	i := 0
	l["wire.decode_ns"] = probeNS(func() {
		probeSink, _ = wire.Decode(tuple.DefaultRegistry, payloads[i%len(payloads)])
		i++
	})
	i = 0
	l["wire.encode_ns"] = probeNS(func() {
		probeSink, _ = wire.Encode(msgs[i%len(msgs)])
		i++
	})
}

// coreProbes measures Read and Inject on a stand-alone node holding
// residentTuples+1 gradients (route3_resident's store), with no
// neighbours so nothing leaves the node.
func coreProbes(l map[string]float64, msg func() tuple.Tuple) error {
	sim := transport.NewSim(topology.New(), transport.SimConfig{})
	node := core.New(sim.Attach("p0", nil))
	for k := 0; k <= residentTuples; k++ {
		if _, err := node.Inject(pattern.NewGradient(fmt.Sprintf("res-%d", k))); err != nil {
			return fmt.Errorf("core probe preload: %w", err)
		}
	}
	tpl := tuple.Match(pattern.KindGradient)
	l["core.read_ns_per_tuple"] = probeNS(func() { probeSink = node.Read(tpl) }) / (residentTuples + 1)
	// Inject a fixed number of the workload's messages rather than a
	// self-sizing batch: each inject leaves a dedup record behind.
	const injects = 20000
	per := make([]float64, probeRepeats)
	for r := range per {
		ts := make([]tuple.Tuple, injects)
		for i := range ts {
			ts[i] = msg()
		}
		t0 := now()
		for _, t := range ts {
			if _, err := node.Inject(t); err != nil {
				return fmt.Errorf("core probe inject: %w", err)
			}
		}
		per[r] = float64(now()-t0) / injects
	}
	l["core.inject_ns"] = median(per)
	return nil
}

// traceRoute3 makes route3's traced run: the one-in-flight loop twice,
// each on a fleet of its own — bare, then behind the span shims — then
// the waterfall and the probes.
func traceRoute3(res *result, resident bool, o options) error {
	bareMS, err := oneInFlightRun(resident, o, nil)
	if err != nil {
		return err
	}
	tc := newTracer()
	t0 := now()
	tracedMS, err := oneInFlightRun(resident, o, tc)
	if err != nil {
		return err
	}
	if len(bareMS) == 0 || len(tracedMS) == 0 {
		return fmt.Errorf("%s: traced run delivered nothing", res.Workload)
	}
	res.phase("traced", now()-t0, len(tracedMS))
	wf := tc.routeWaterfall("n0", "n1", "n2")
	l := res.Layer
	l["wf.ingress_us"] = wf.ingressUS
	l["wf.udp_send_us"] = wf.udpSendUS
	l["wf.hop_gap_us"] = wf.hopGapUS
	l["wf.relay_handle_us"] = wf.relayHandleUS
	l["wf.dest_to_client_us"] = wf.destToClientUS
	l["wf.sum_over_e2e"] = wf.sumOverE2E()
	l["core.handle_packet_self_p50_us"] = median(wf.handleSelfUS)
	l["udp.send_p50_us"] = median(wf.sendUS)
	l["udp.hop_gap_p50_us"] = median(wf.gapUS)
	l["diag.one_in_flight_p50_ms"] = median(bareMS)
	l["diag.trace_overhead_ratio"] = median(tracedMS) / median(bareMS)
	if s := wf.sumOverE2E(); s < 0.9 || s > 1.1 {
		res.note(fmt.Sprintf("waterfall rows sum to %.3f of the end-to-end median (want 0.9–1.1): the spans do not tile the operation", s))
	}
	wireProbes(l, tc.payloads)
	pad := makePads(o.seed)[0]
	return finishTrace(l, tc, o, pattern.ByName(pattern.KindDownhill, inboxName), func() tuple.Tuple {
		return pattern.NewDownhill(inboxName, tuple.I("seq", 1), tuple.I("from", int64(now())), tuple.S("pad", pad))
	})
}

// finishTrace runs the probes that need the workload's message and
// template, and writes the spans out.
func finishTrace(l map[string]float64, tc *tracer, o options, tpl tuple.Template, msg func() tuple.Tuple) error {
	tupleProbes(l, msg(), tpl)
	if err := coreProbes(l, msg); err != nil {
		return err
	}
	if o.spans == "" {
		return nil
	}
	return tc.writeJSONL(o.spans)
}

// traceFanout is gw_fanout's traced run. No packet leaves the node, so
// there is no waterfall: the run yields the client.op spans, the tracing
// overhead and the probes.
func traceFanout(res *result, o options) error {
	bareMS, err := fanoutOneInFlight(o, nil)
	if err != nil {
		return err
	}
	tc := newTracer()
	t0 := now()
	tracedMS, err := fanoutOneInFlight(o, tc)
	if err != nil {
		return err
	}
	if len(bareMS) == 0 || len(tracedMS) == 0 {
		return fmt.Errorf("gw_fanout: traced run delivered nothing")
	}
	res.phase("traced", now()-t0, len(tracedMS))
	l := res.Layer
	l["diag.one_in_flight_p50_ms"] = median(bareMS)
	l["diag.trace_overhead_ratio"] = median(tracedMS) / median(bareMS)
	pad := makePads(o.seed)[0]
	return finishTrace(l, tc, o, pattern.ByName(pattern.KindFlood, hotName), func() tuple.Tuple {
		return pattern.NewFlood(hotName, tuple.I("seq", 1), tuple.I("t", int64(now())), tuple.S("pad", pad))
	})
}
