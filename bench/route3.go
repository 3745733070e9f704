package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/pattern"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// Sizing of the route3 workloads at the default -seconds: two measured
// phases of about 10 s each on the reference box.
const (
	route3Rate     = 500   // paced phase, messages per second (open loop)
	route3Paced    = 5000  // paced messages: 10 s at route3Rate
	route3Sat      = 85000 // messages of the saturating phase (≈ 10 s)
	route3Warm     = 4000  // closed-loop warm-up messages, part of set-up
	route3InFlight = 32    // saturating phase: bound on messages in flight
	residentTuples = 1000  // route3_resident: gradients preloaded on every node
	readEvery      = 100 * time.Millisecond
	padLen         = 64
	numPads        = 256
	inboxName      = "inbox"
	arrivedEvent   = "tuple-arrived"
)

// Message states in the ledger.
const (
	msgPending int32 = iota
	msgDelivered
	msgFailed
)

// route3Config sizes one route3 fleet and its message ledger. A
// message's seq runs over warm (closed loop, part of set-up), paced (open
// loop) and closed (closed loop: saturating on the measured run, one in
// flight on the traced run) in that order.
type route3Config struct {
	resident            bool
	seed                int64
	warm, paced, closed int
	tc                  *tracer // non-nil: span shims on, each message of the closed phase is one traced operation
}

// route3 is the paper's §5.1 content-based routing over a three-node
// line: a receiver client on n2's gateway owns gradient "inbox" and
// subscribes to Downhill messages; a sender client on n0's gateway
// sends Downhill messages that descend it n0 → n1 → n2.
type route3 struct {
	route3Config
	fleet *fleet
	a, b  *gateway.Client // sender (n0), receiver (n2)
	sub   *gateway.Subscription
	pads  []string

	// Ledger, indexed by seq.
	from  []atomic.Int64 // the instant the message is timed from: its due time in the open loop, its issue time in a closed one; ns from epoch, 0 until it is sent
	recv  []int64        // receipt time, written by the receiver before it flips state
	state []atomic.Int32
	gate  *gate

	dups, wrong, late atomic.Int64
	pacedDone         atomic.Int64

	// Paced-phase window marks: the receiver reads the loopback byte
	// counter when the phase's delivery count reaches a window boundary.
	pacedBounds []int
	pacedWindow int // receiver-only: the window the next delivery falls in
	netMarks    []int64
	netErr      error

	// Closed-phase window marks: satMarks[w] is taken by the receiver when
	// the phase's delivery count reaches the w-th boundary.
	satBounds []int
	satDone   int // receiver-only
	satWindow int // receiver-only: the window the next delivery falls in
	satMarks  []mark

	recvDone chan struct{}
}

// makePads returns the seeded message bodies; message seq carries
// pads[seq % numPads], so the receiver can check the body by equality.
func makePads(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	pads := make([]string, numPads)
	for i := range pads {
		b := make([]byte, padLen)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		pads[i] = string(b)
	}
	return pads
}

// Phase boundaries in seq space.
func (r *route3) pacedStart() int  { return r.warm }
func (r *route3) closedStart() int { return r.warm + r.paced }
func (r *route3) end() int         { return r.warm + r.paced + r.closed }

// setupRoute3 builds the fleet and the two clients, installs the inbox
// gradient and the subscription, preloads the resident tuples and runs
// the closed-loop warm-up. Everything it does is set-up time.
func setupRoute3(cfg route3Config) (*route3, error) {
	f, err := newLine(3, map[int]bool{0: true, 2: true}, cfg.tc)
	if err != nil {
		return nil, err
	}
	n := cfg.warm + cfg.paced + cfg.closed
	r := &route3{
		route3Config: cfg,
		fleet:        f,
		pads:         makePads(cfg.seed),
		from:         make([]atomic.Int64, n),
		recv:         make([]int64, n),
		state:        make([]atomic.Int32, n),
		gate:         newGate(),
		pacedBounds:  windowBounds(cfg.paced, numWindows),
		netMarks:     make([]int64, numWindows+1),
		satBounds:    windowBounds(cfg.closed, numWindows),
		satMarks:     make([]mark, numWindows+1),
		recvDone:     make(chan struct{}),
	}
	r.a = gateway.Dial(f.members[0].gw.Addr(), gateway.ClientConfig{})
	r.b = gateway.Dial(f.members[2].gw.Addr(), gateway.ClientConfig{})
	fail := func(err error) (*route3, error) {
		r.close()
		return nil, err
	}
	if _, err := r.b.Inject(pattern.NewGradient(inboxName)); err != nil {
		return fail(fmt.Errorf("inject inbox gradient: %w", err))
	}
	if r.sub, err = r.b.Subscribe(pattern.ByName(pattern.KindDownhill, inboxName)); err != nil {
		return fail(fmt.Errorf("subscribe: %w", err))
	}
	go r.receive()
	want := 1
	if r.resident {
		for k := 0; k < residentTuples; k++ {
			c := r.a
			if k%2 == 1 {
				c = r.b
			}
			if _, err := c.Inject(pattern.NewGradient(fmt.Sprintf("res-%d", k))); err != nil {
				return fail(fmt.Errorf("preload gradient %d: %w", k, err))
			}
		}
		want += residentTuples
	}
	err = waitFor(10*time.Second, "gradients on every node", func() bool {
		for _, m := range f.members {
			if m.node.StoreSize() != want {
				return false
			}
		}
		return true
	})
	if err != nil {
		return fail(err)
	}
	r.saturate(0, r.warm)
	return r, nil
}

func (r *route3) close() {
	if r.a != nil {
		_ = r.a.Close()
	}
	if r.b != nil {
		_ = r.b.Close() // closes sub.Events, which ends receive
		if r.sub != nil {
			<-r.recvDone
		}
	}
	r.fleet.close()
}

func (r *route3) message(seq int, from time.Duration) *pattern.Downhill {
	return pattern.NewDownhill(inboxName,
		tuple.I("seq", int64(seq)),
		tuple.I("from", int64(from)),
		tuple.S("pad", r.pads[seq%numPads]))
}

func (r *route3) closedLoopSeq(seq int) bool { return seq < r.pacedStart() || seq >= r.closedStart() }
func (r *route3) tracedSeq(seq int) bool     { return r.tc != nil && seq >= r.closedStart() }

// send injects message seq, timed from the given instant, and returns
// how long the Inject round trip took. An inject the gateway refuses
// fails the message.
func (r *route3) send(seq int, from time.Duration) time.Duration {
	r.from[seq].Store(int64(from))
	t0 := now()
	if r.tracedSeq(seq) {
		r.tc.beginOp(int64(seq), t0)
	}
	_, err := r.a.Inject(r.message(seq, from))
	rtt := now() - t0
	if err != nil && r.state[seq].CompareAndSwap(msgPending, msgFailed) {
		r.wrong.Add(1)
		if r.closedLoopSeq(seq) {
			r.gate.release()
		}
	}
	return rtt
}

// receive is the receiver client's consumer: it checks every event and
// settles the ledger. A delivery counts once, with the right body, and
// only while its message is still pending.
func (r *route3) receive() {
	defer close(r.recvDone)
	for ev := range r.sub.Events {
		t := now()
		if ev.Type != arrivedEvent {
			continue // removals are not deliveries
		}
		d, ok := ev.Tuple.(*pattern.Downhill)
		if !ok {
			r.wrong.Add(1)
			continue
		}
		c := d.Payload
		seq := int(c.GetInt("seq"))
		if seq < 0 || seq >= len(r.state) ||
			c.GetString("pad") != r.pads[seq%numPads] || c.GetInt("from") != r.from[seq].Load() {
			r.wrong.Add(1)
			continue
		}
		// Only this goroutine moves a message to delivered, so a message
		// seen delivered here is a duplicate; the sender's reaper may fail
		// a pending one under us, which the swap detects.
		if r.state[seq].Load() == msgDelivered {
			r.dups.Add(1)
			continue
		}
		r.recv[seq] = int64(t)
		if !r.state[seq].CompareAndSwap(msgPending, msgDelivered) {
			r.late.Add(1)
			continue
		}
		if r.tracedSeq(seq) {
			r.tc.endOp(t)
		}
		if seq >= r.closedStart() {
			r.satDone++
			if r.satDone == r.satBounds[r.satWindow+1] {
				r.satWindow++
				r.satMarks[r.satWindow] = takeMark()
			}
		}
		if r.closedLoopSeq(seq) {
			r.gate.release()
		} else if int(r.pacedDone.Add(1)) == r.pacedBounds[r.pacedWindow+1] {
			r.pacedWindow++
			r.markNet(r.pacedWindow)
		}
	}
}

// markNet reads the loopback byte counter at the end of paced window w
// (w = 0: the start of the phase).
func (r *route3) markNet(w int) {
	n, err := loopbackBytes()
	if err != nil {
		r.netErr = err
	}
	r.netMarks[w] = n
}

// reap fails closed-loop messages in [from, to) that outlived lateLimit
// and frees their slots. A sender takes its seq before it stamps the
// message, so a seq below to may not be sent yet: its stamp is still 0
// and it is left alone.
func (r *route3) reap(from, to int) {
	cutoff := int64(now() - lateLimit)
	for seq := from; seq < to; seq++ {
		sent := r.from[seq].Load()
		if sent != 0 && sent < cutoff && r.state[seq].CompareAndSwap(msgPending, msgFailed) {
			r.gate.release()
		}
	}
}

// closedLoop sends messages [from, to) from the given number of sender
// goroutines, all on connection A, with at most inFlight in flight, and
// returns when every one is delivered or failed.
func (r *route3) closedLoop(from, to, senders, inFlight int) {
	r.gate.setLimit(inFlight)
	var next atomic.Int64
	next.Store(int64(from))
	reap := func() { r.reap(from, min(to, int(next.Load()))) }
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r.gate.acquire(reap)
				seq := int(next.Add(1)) - 1
				if seq >= to {
					r.gate.release()
					return
				}
				r.send(seq, now())
			}
		}()
	}
	wg.Wait()
	r.gate.drain(reap)
}

// saturate is the closed loop that keeps the fleet busy: one sender per
// processor, route3InFlight messages in flight.
func (r *route3) saturate(from, to int) {
	r.closedLoop(from, to, runtime.GOMAXPROCS(0), route3InFlight)
}

// oneAtATime is the closed loop of a single user who sends the next
// message when the previous one arrived.
func (r *route3) oneAtATime(from, to int) { r.closedLoop(from, to, 1, 1) }

// openLoopPhase sends the paced messages on schedule and waits until
// each is delivered or lateLimit old.
func (r *route3) openLoopPhase() (injectUS, lateUS []float64) {
	first := r.pacedStart()
	injectUS = make([]float64, 0, r.paced)
	interval := time.Second / route3Rate
	var last time.Duration
	lateUS = openLoop(r.paced, interval, now, time.Sleep, func(i int, at time.Duration) {
		last = at
		injectUS = append(injectUS, us(r.send(first+i, at)))
	})
	for r.pacedDone.Load() < int64(r.paced) && now() < last+lateLimit {
		time.Sleep(time.Millisecond)
	}
	for seq := first; seq < first+r.paced; seq++ {
		r.state[seq].CompareAndSwap(msgPending, msgFailed)
	}
	return injectUS, lateUS
}

// ledgerMB is the size of the rig's own per-message arrays.
func (r *route3) ledgerMB() float64 {
	return float64(len(r.from)*8+len(r.recv)*8+len(r.state)*4) / (1 << 20)
}

// latenciesMS returns, for the delivered messages of [from, to) in send
// order, the time from the instant each is timed from to its receipt.
func (r *route3) latenciesMS(from, to int) []float64 {
	out := make([]float64, 0, to-from)
	for seq := from; seq < to; seq++ {
		if r.state[seq].Load() == msgDelivered {
			out = append(out, float64(r.recv[seq]-r.from[seq].Load())/1e6)
		}
	}
	return out
}

// reader is route3_resident's second user of n2: it reads every
// gradient every readEvery and checks the count.
type reader struct {
	stop, done chan struct{}
	readMS     []float64
	bad        int
}

func (r *route3) startReader() *reader {
	rd := &reader{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rd.done)
		ticker := time.NewTicker(readEvery)
		defer ticker.Stop()
		for {
			select {
			case <-rd.stop:
				return
			case <-ticker.C:
				t0 := now()
				ts, err := r.b.Read(tuple.Match(pattern.KindGradient))
				rd.readMS = append(rd.readMS, ms(now()-t0))
				if err != nil || len(ts) != residentTuples+1 {
					rd.bad++
				}
			}
		}
	}()
	return rd
}

// finish stops the reader and returns what it saw.
func (rd *reader) finish() (readMS []float64, bad int) {
	close(rd.stop)
	<-rd.done
	return rd.readMS, rd.bad
}

// fleetCounters sums the per-layer counters over the fleet.
type fleetCounters struct {
	core core.Stats
	udp  udp.Stats
	gw   gateway.Stats
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, m := range f.members {
		c.core = c.core.Add(m.node.Stats())
		u := m.tr.Stats()
		c.udp.Sent += u.Sent
		c.udp.SendErrors += u.SendErrors
		c.udp.BadFrames += u.BadFrames
		c.udp.Shed += u.Shed
		if m.gw != nil {
			g := m.gw.Stats()
			c.gw.EventsDelivered += g.EventsDelivered
			c.gw.EventsDropped += g.EventsDropped
		}
	}
	return c
}

// runRoute3 runs route3_msg (resident false) or route3_resident: the
// untraced measurement, then (with -trace 1) the traced run on fleets of
// its own once the measured one is closed.
func runRoute3(name string, resident bool, o options) (*result, error) {
	res := newResult(name, o)
	if err := measureRoute3(res, resident, o); err != nil {
		return nil, err
	}
	if o.trace {
		if err := traceRoute3(res, resident, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureRoute3 fills res with the untraced run's metrics.
func measureRoute3(res *result, resident bool, o options) error {
	r, setupS, err := setUp(o, func() (*route3, error) {
		return setupRoute3(route3Config{resident: resident, seed: o.seed, warm: o.scale(route3Warm),
			paced: o.scale(route3Paced), closed: o.scale(route3Sat)})
	})
	if err != nil {
		return err
	}
	defer r.close()
	res.E2E["setup_s"] = setupS

	var rd *reader
	if resident {
		rd = r.startReader()
	}
	for _, m := range r.fleet.members {
		m.tickTimes() // discard set-up epochs
	}

	// Paced phase: open loop. The bytes on the network are counted here,
	// where they repeat to 0.01 %.
	c0 := r.fleet.counters()
	m0 := readMeter()
	r.markNet(0)
	injectUS, lateUS := r.openLoopPhase()
	m1 := readMeter()
	if r.netErr != nil {
		return r.netErr
	}

	// Saturating phase: closed loop, every processor sending.
	r.satMarks[0] = takeMark()
	r.saturate(r.closedStart(), r.end())
	m2 := readMeter()
	c2 := r.fleet.counters()

	var readMS []float64
	var badReads int
	if rd != nil {
		readMS, badReads = rd.finish()
	}
	// What the fleet retains, taken before the rig builds its latency
	// slices and without the rig's own ledger.
	res.E2E["live_heap_mb"] = liveHeapMB() - r.ledgerMB()

	pacedLat := r.latenciesMS(r.pacedStart(), r.closedStart())
	satLat := r.latenciesMS(r.closedStart(), r.end())
	res.phase("paced", m1.wall-m0.wall, len(pacedLat))
	res.phase("sat", m2.wall-m1.wall, len(satLat))

	// Deliveries owed and made.
	delivered := len(pacedLat) + len(satLat)
	res.settle(int64(r.paced+r.closed), int64(delivered)-r.dups.Load())
	res.E2E["e2e_p50_ms"] = windowMedian(pacedLat)
	res.E2E["net_bytes_per_delivery"] = medianPerWindow(r.netMarks, windowCounts(r.pacedBounds, 1))

	res.E2E["deliveries_per_s"], res.E2E["cpu_us_per_delivery"], err = windowRates(r.satMarks, windowCounts(r.satBounds, 1))
	if err != nil {
		return fmt.Errorf("%s: %w", res.Workload, err)
	}

	// Per-layer, from the same untraced run.
	deliveries := float64(max(1, delivered))
	d := func(a, b int64) float64 { return float64(b - a) }
	l := res.Layer
	l["gateway.inject_rpc_p50_us"] = windowMedian(injectUS)
	if resident {
		l["gateway.read_rpc_p50_ms"] = median(readMS)
	}
	l["gateway.frames_per_delivery"] = d(c0.gw.EventsDelivered, c2.gw.EventsDelivered) / deliveries
	l["gateway.events_dropped"] = d(c0.gw.EventsDropped, c2.gw.EventsDropped)
	l["core.packets_in_per_delivery"] = d(c0.core.PacketsIn, c2.core.PacketsIn) / deliveries
	l["core.broadcasts_per_delivery"] = d(c0.core.Broadcasts, c2.core.Broadcasts) / deliveries
	l["core.dup_ratio"] = d(c0.core.DupDropped, c2.core.DupDropped) / math.Max(1, d(c0.core.PacketsIn, c2.core.PacketsIn))
	var refreshUS, sweepUS []float64
	for _, m := range r.fleet.members {
		ru, su := m.tickTimes()
		refreshUS, sweepUS = append(refreshUS, ru...), append(sweepUS, su...)
	}
	l["core.refresh_p50_us"] = median(refreshUS)
	l["core.sweep_p50_us"] = median(sweepUS)
	supp, ann := d(c0.core.RefreshSuppressed, c2.core.RefreshSuppressed), d(c0.core.RefreshAnnounced, c2.core.RefreshAnnounced)
	l["core.refresh_suppressed_ratio"] = supp / math.Max(1, supp+ann)
	l["core.digests_out_per_epoch"] = d(c0.core.DigestsOut, c2.core.DigestsOut) / math.Max(1, float64(len(refreshUS)))
	l["core.pulls_out"] = d(c0.core.PullsOut, c2.core.PullsOut)
	l["udp.datagrams_per_delivery"] = d(c0.udp.Sent, c2.udp.Sent) / deliveries
	l["udp.shed"] = d(c0.udp.Shed, c2.udp.Shed)
	l["udp.bad_frames"] = d(c0.udp.BadFrames, c2.udp.BadFrames)
	l["udp.send_errors"] = d(c0.udp.SendErrors, c2.udp.SendErrors)
	runtimeLayer(l, m0, m2, deliveries)
	l["runtime.paced_cpu_us_per_delivery"] = us(m1.cpu-m0.cpu) / float64(max(1, len(pacedLat)))
	l["diag.e2e_p99_ms"] = tail(pacedLat, 0.99) // tails are the open loop's: only there is a stall charged to every message it delays
	l["diag.e2e_p999_ms"] = tail(pacedLat, 0.999)
	l["diag.gen_late_p50_ms"] = median(lateUS) / 1e3
	l["diag.gen_late_p99_ms"] = tail(lateUS, 0.99) / 1e3

	res.count("duplicate deliveries", r.dups.Load())
	res.count("wrong or refused messages", r.wrong.Load())
	res.count("deliveries later than 1 s", r.late.Load())
	res.count("reads that did not return every gradient", int64(badReads))
	res.loudLayerCounters("gateway.events_dropped", "core.pulls_out", "udp.shed", "udp.bad_frames", "udp.send_errors")
	if badReads > 0 {
		res.Correct = false
	}
	return nil
}

// oneInFlightRun runs the one-in-flight loop on a fleet of its own and
// returns each message's latency in ms; a non-nil tracer puts the fleet
// behind the span shims.
func oneInFlightRun(resident bool, o options, tc *tracer) ([]float64, error) {
	r, err := setupRoute3(route3Config{resident: resident, seed: o.seed,
		warm: o.scale(tracedWarm), closed: o.scale(tracedOps), tc: tc})
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.oneAtATime(r.closedStart(), r.end())
	return r.latenciesMS(r.closedStart(), r.end()), nil
}
