package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/gateway"
	"tota/internal/pattern"
	"tota/internal/tuple"
)

// Sizing of gw_fanout at the default -seconds: one closed-loop phase of
// about 19 s on the reference box.
const (
	fanoutConns       = 2
	fanoutHotPerConn  = 50 // subscriptions per connection that match every inject
	fanoutColdPerConn = 50 // subscriptions per connection that never match
	fanoutHot         = fanoutConns * fanoutHotPerConn
	fanoutInFlight    = 2    // injects in flight; keeps each conn.out (256 slots) under its bound
	fanoutWarm        = 500  // warm-up injects, part of set-up
	fanoutMeasured    = 8000 // measured injects: 800,000 deliveries
	hotName           = "hot"
)

type fanoutConfig struct {
	seed           int64
	warm, measured int     // inject counts; seq runs over both in that order
	inFlight       int     // closed-loop bound on injects in flight
	tc             *tracer // non-nil: span shims on, each measured inject is one traced operation
}

// fanout is one node with no peers and two client connections holding
// 100 subscriptions each; every inject on connection A owes one delivery
// to each of the 100 matching subscriptions.
type fanout struct {
	fanoutConfig
	fleet   *fleet
	clients []*gateway.Client
	hot     []*gateway.Subscription
	cold    []*gateway.Subscription
	pads    []string

	subscribeUS []float64

	// Ledger. A cell is (seq, hot subscription).
	issued []atomic.Int64 // inject call time, ns from epoch
	recv   []int64        // len = injects × fanoutHot; written once, by that subscription's consumer
	got    []atomic.Int32 // deliveries seen per inject
	state  []atomic.Int32 // msgPending → msgDelivered (all fanoutHot arrived) or msgFailed
	gate   *gate

	dups, wrong atomic.Int64

	// Window marks, taken by the consumer that completes a window's last
	// inject: the clocks, and the loopback byte counter.
	bounds       []int
	measuredDone atomic.Int64
	marks        []mark
	netMarks     []int64
	netErr       error

	consumers sync.WaitGroup
}

// setupFanout builds the node, the connections and the subscriptions,
// starts one consumer per matching subscription and runs the warm-up.
func setupFanout(cfg fanoutConfig) (*fanout, error) {
	fl, err := newLine(1, map[int]bool{0: true}, cfg.tc)
	if err != nil {
		return nil, err
	}
	n := cfg.warm + cfg.measured
	f := &fanout{
		fanoutConfig: cfg,
		fleet:        fl,
		pads:         makePads(cfg.seed),
		issued:       make([]atomic.Int64, n),
		recv:         make([]int64, n*fanoutHot),
		got:          make([]atomic.Int32, n),
		state:        make([]atomic.Int32, n),
		gate:         newGate(),
		bounds:       windowBounds(cfg.measured, numWindows),
		marks:        make([]mark, numWindows+1),
		netMarks:     make([]int64, numWindows+1),
	}
	addr := fl.members[0].gw.Addr()
	subscribe := func(c *gateway.Client, tpl tuple.Template) (*gateway.Subscription, error) {
		t0 := now()
		s, err := c.Subscribe(tpl)
		f.subscribeUS = append(f.subscribeUS, us(now()-t0))
		return s, err
	}
	for ci := 0; ci < fanoutConns; ci++ {
		c := gateway.Dial(addr, gateway.ClientConfig{})
		f.clients = append(f.clients, c)
		for i := 0; i < fanoutHotPerConn; i++ {
			s, err := subscribe(c, pattern.ByName(pattern.KindFlood, hotName))
			if err != nil {
				f.close()
				return nil, fmt.Errorf("subscribe hot: %w", err)
			}
			f.hot = append(f.hot, s)
		}
		for i := 0; i < fanoutColdPerConn; i++ {
			s, err := subscribe(c, pattern.ByName(pattern.KindFlood, fmt.Sprintf("cold-%d", i)))
			if err != nil {
				f.close()
				return nil, fmt.Errorf("subscribe cold: %w", err)
			}
			f.cold = append(f.cold, s)
		}
	}
	for k, s := range f.hot {
		f.consumers.Add(1)
		go f.consume(k, s)
	}
	f.closedLoop(0, cfg.warm)
	return f, nil
}

func (f *fanout) close() {
	for _, c := range f.clients {
		_ = c.Close() // closes every Events channel, which ends the consumers
	}
	f.consumers.Wait()
	f.fleet.close()
}

// consume is the user behind hot subscription k.
func (f *fanout) consume(k int, s *gateway.Subscription) {
	defer f.consumers.Done()
	for ev := range s.Events {
		t := now()
		if ev.Type != arrivedEvent {
			continue
		}
		fl, ok := ev.Tuple.(*pattern.Flood)
		if !ok {
			f.wrong.Add(1)
			continue
		}
		seq := int(fl.Payload.GetInt("seq"))
		if seq < 0 || seq >= len(f.state) || fl.Name != hotName ||
			fl.Payload.GetString("pad") != f.pads[seq%numPads] || fl.Payload.GetInt("t") != f.issued[seq].Load() {
			f.wrong.Add(1)
			continue
		}
		cell := seq*fanoutHot + k
		if f.recv[cell] != 0 {
			f.dups.Add(1)
			continue
		}
		f.recv[cell] = int64(t)
		if f.got[seq].Add(1) == fanoutHot && f.state[seq].CompareAndSwap(msgPending, msgDelivered) {
			f.complete(seq, t)
		}
	}
}

// complete runs once per inject, on the consumer that saw its last
// delivery.
func (f *fanout) complete(seq int, t time.Duration) {
	if seq >= f.warm {
		if f.tc != nil {
			f.tc.endOp(t)
		}
		done := int(f.measuredDone.Add(1))
		for w := 1; w <= numWindows; w++ {
			if done == f.bounds[w] {
				f.markWindow(w)
			}
		}
	}
	f.gate.release()
}

// markWindow reads the clocks and the loopback byte counter at the end
// of window w (w = 0: the start of the phase).
func (f *fanout) markWindow(w int) {
	f.marks[w] = takeMark()
	n, err := loopbackBytes()
	if err != nil {
		f.netErr = err
	}
	f.netMarks[w] = n
}

func (f *fanout) reap(from, to int) {
	cutoff := int64(now() - lateLimit)
	for seq := from; seq < to; seq++ {
		if f.state[seq].Load() == msgPending && f.issued[seq].Load() < cutoff &&
			f.state[seq].CompareAndSwap(msgPending, msgFailed) {
			f.gate.release()
		}
	}
}

// closedLoop injects [from, to) on connection A with at most inFlight
// injects incomplete, and returns when every one completed or failed.
func (f *fanout) closedLoop(from, to int) (injectUS []float64) {
	f.gate.setLimit(f.inFlight)
	injectUS = make([]float64, 0, to-from)
	sent := from
	reap := func() { f.reap(from, sent) }
	for ; sent < to; sent++ {
		f.gate.acquire(reap)
		t0 := now()
		f.issued[sent].Store(int64(t0))
		if f.tc != nil && sent >= f.warm {
			f.tc.beginOp(int64(sent), t0)
		}
		_, err := f.clients[0].Inject(pattern.NewFlood(hotName,
			tuple.I("seq", int64(sent)), tuple.I("t", int64(t0)), tuple.S("pad", f.pads[sent%numPads])))
		injectUS = append(injectUS, us(now()-t0))
		if err != nil && f.state[sent].CompareAndSwap(msgPending, msgFailed) {
			f.wrong.Add(1)
			f.gate.release()
		}
	}
	f.gate.drain(reap)
	return injectUS
}

// ledgerMB is the size of the rig's own per-inject and per-delivery
// arrays.
func (f *fanout) ledgerMB() float64 {
	return float64(len(f.issued)*8+len(f.recv)*8+len(f.got)*4+len(f.state)*4) / (1 << 20)
}

// deliveries returns, for injects [from, to), the inject → receipt time
// in ms of every delivery made within lateLimit (in inject order) and
// the first → last spread of each complete inject in µs.
func (f *fanout) deliveries(from, to int) (latMS, spreadUS []float64) {
	latMS = make([]float64, 0, (to-from)*fanoutHot)
	for seq := from; seq < to; seq++ {
		t0 := f.issued[seq].Load()
		first, last := int64(math.MaxInt64), int64(0)
		n := 0
		for k := 0; k < fanoutHot; k++ {
			t := f.recv[seq*fanoutHot+k]
			if t == 0 || t-t0 > int64(lateLimit) {
				continue
			}
			n++
			first, last = min(first, t), max(last, t)
			latMS = append(latMS, float64(t-t0)/1e6)
		}
		if n == fanoutHot {
			spreadUS = append(spreadUS, float64(last-first)/1e3)
		}
	}
	return latMS, spreadUS
}

func runFanout(o options) (*result, error) {
	res := newResult("gw_fanout", o)
	if err := measureFanout(res, o); err != nil {
		return nil, err
	}
	if o.trace {
		if err := traceFanout(res, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func measureFanout(res *result, o options) error {
	measured := o.scale(fanoutMeasured)

	f, setupS, err := setUp(o, func() (*fanout, error) {
		return setupFanout(fanoutConfig{seed: o.seed, warm: o.scale(fanoutWarm), measured: measured, inFlight: fanoutInFlight})
	})
	if err != nil {
		return err
	}
	defer f.close()
	res.E2E["setup_s"] = setupS
	m := f.fleet.members[0]
	m.tickTimes()

	c0 := f.fleet.counters()
	m0 := readMeter()
	f.markWindow(0)
	injectUS := f.closedLoop(f.warm, f.warm+measured)
	m1 := readMeter()
	if f.netErr != nil {
		return f.netErr
	}
	c1 := f.fleet.counters()
	// What the node and the clients retain, taken before the rig builds
	// its latency slices and without the rig's own ledger.
	res.E2E["live_heap_mb"] = liveHeapMB() - f.ledgerMB()
	latMS, spreadUS := f.deliveries(f.warm, f.warm+measured)
	res.phase("fanout", m1.wall-m0.wall, len(latMS))

	for _, s := range f.cold {
		if n := len(s.Events); n > 0 {
			f.wrong.Add(int64(n))
		}
	}
	owed := int64(measured) * fanoutHot
	res.settle(owed, int64(len(latMS))-f.dups.Load())
	deliveries := float64(max(1, len(latMS)))
	res.E2E["e2e_p50_ms"] = windowMedian(latMS)
	perWindow := windowCounts(f.bounds, fanoutHot)
	// Bytes per window, not over the phase: a connection's receiver can
	// switch for good, at any moment, from acknowledging every second
	// segment to acknowledging every one (+3 % bytes); the median window
	// says which of the two the run mostly was.
	res.E2E["net_bytes_per_delivery"] = medianPerWindow(f.netMarks, perWindow)
	res.E2E["deliveries_per_s"], res.E2E["cpu_us_per_delivery"], err = windowRates(f.marks, perWindow)
	if err != nil {
		return fmt.Errorf("gw_fanout: %w", err)
	}

	d := func(a, b int64) float64 { return float64(b - a) }
	l := res.Layer
	l["gateway.inject_rpc_p50_us"] = windowMedian(injectUS)
	l["gateway.subscribe_p50_us"] = median(f.subscribeUS)
	l["gateway.fanout_spread_p50_us"] = windowMedian(spreadUS)
	l["gateway.frames_per_delivery"] = d(c0.gw.EventsDelivered, c1.gw.EventsDelivered) / deliveries
	l["gateway.events_dropped"] = d(c0.gw.EventsDropped, c1.gw.EventsDropped)
	l["core.broadcasts_per_delivery"] = d(c0.core.Broadcasts, c1.core.Broadcasts) / deliveries
	refreshUS, sweepUS := m.tickTimes()
	l["core.refresh_p50_us"] = median(refreshUS)
	l["core.sweep_p50_us"] = median(sweepUS)
	l["udp.datagrams_per_delivery"] = d(c0.udp.Sent, c1.udp.Sent) / deliveries
	l["udp.send_errors"] = d(c0.udp.SendErrors, c1.udp.SendErrors)
	runtimeLayer(l, m0, m1, deliveries)
	l["runtime.paced_cpu_us_per_delivery"] = us(m1.cpu-m0.cpu) / deliveries
	l["diag.e2e_p99_ms"] = tail(latMS, 0.99)
	l["diag.e2e_p999_ms"] = tail(latMS, 0.999)

	res.count("duplicate deliveries", f.dups.Load())
	res.count("wrong events, refused injects or events on a never-matching subscription", f.wrong.Load())
	res.loudLayerCounters("gateway.events_dropped", "udp.send_errors")
	return nil
}

// fanoutOneInFlight runs ops injects with a single one in flight and
// returns each inject's call → last delivery time in ms.
func fanoutOneInFlight(o options, tc *tracer) ([]float64, error) {
	ops := o.scale(tracedOps)
	f, err := setupFanout(fanoutConfig{seed: o.seed, warm: o.scale(tracedWarm), measured: ops, inFlight: 1, tc: tc})
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.closedLoop(f.warm, f.warm+ops)
	out := make([]float64, 0, ops)
	for seq := f.warm; seq < f.warm+ops; seq++ {
		if f.state[seq].Load() != msgDelivered {
			continue
		}
		var last int64
		for k := 0; k < fanoutHot; k++ {
			last = max(last, f.recv[seq*fanoutHot+k])
		}
		out = append(out, float64(last-f.issued[seq].Load())/1e6)
	}
	return out, nil
}
