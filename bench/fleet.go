package main

import (
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/obs"
	"tota/internal/transport"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// refreshPeriod is cmd/tota-node's -refresh default.
const refreshPeriod = time.Second

// member is one TOTA node assembled the way cmd/tota-node's run() does
// with default flags (see README.md, "What the fleet mirrors"), in this
// process, over real loopback sockets.
type member struct {
	tr   *udp.Transport
	node *core.Node
	gw   *gateway.Gateway // nil when the node serves no clients

	stop chan struct{}
	done chan struct{}

	// The ticker goroutine times its own Refresh and SweepExpired calls:
	// the rig makes those calls, so it can time them from outside.
	mu        sync.Mutex
	refreshUS []float64
	sweepUS   []float64
}

// newMember binds the sockets and builds the node but does not start
// it, so the caller can wire peers first. A non-nil tracer puts the
// span shims on the two public seams (transport.Sender in front of
// core.New, transport.Handler in front of SetHandler).
func newMember(id string, withGateway bool, tc *tracer) (*member, error) {
	// cmd/tota-node logs at Info; the rig keeps only errors, because
	// tearing a fleet down with packets in flight makes the nodes warn
	// about their own closed sockets. Mid-run trouble is not hidden: it
	// shows in udp.send_errors, udp.bad_frames and core's counters.
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	tr, err := udp.New(udp.Config{NodeID: tuple.NodeID(id), ListenAddr: "127.0.0.1:0", Logger: logger})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() }
	lat := obs.NewLatencies(obs.NewRegistry(), clock, obs.ExpBuckets(0.001, 2, 16))
	opts := []core.Option{
		core.WithLogger(logger),
		core.WithTracer(obs.MultiTracer(lat.Tracer(), nil, nil)),
		core.WithTraceSampling(0),
	}
	m := &member{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	var sender transport.Sender = tr
	if tc != nil {
		sender = &tracedSender{Transport: tr, tc: tc, node: id}
	}
	m.node = core.New(sender, opts...)
	var handler transport.Handler = m.node
	if tc != nil {
		handler = &tracedHandler{next: m.node, tc: tc, node: id}
	}
	tr.SetHandler(handler)
	if withGateway {
		gw, err := gateway.Serve(m.node, "127.0.0.1:0", gateway.Config{Logger: logger})
		if err != nil {
			_ = tr.Close()
			return nil, err
		}
		m.gw = gw
	}
	go m.tick(clock)
	return m, nil
}

func (m *member) tick(clock func() float64) {
	defer close(m.done)
	ticker := time.NewTicker(refreshPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			t0 := now()
			m.node.Refresh()
			t1 := now()
			m.node.SweepExpired(clock())
			t2 := now()
			m.mu.Lock()
			m.refreshUS = append(m.refreshUS, us(t1-t0))
			m.sweepUS = append(m.sweepUS, us(t2-t1))
			m.mu.Unlock()
		}
	}
}

// tickTimes returns and clears the Refresh / SweepExpired durations
// recorded so far.
func (m *member) tickTimes() (refreshUS, sweepUS []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	refreshUS, sweepUS = m.refreshUS, m.sweepUS
	m.refreshUS, m.sweepUS = nil, nil
	return
}

func (m *member) close() {
	close(m.stop)
	<-m.done
	if m.gw != nil {
		_ = m.gw.Close()
	}
	_ = m.tr.Close()
}

// fleet is a line of members n0–n1–…: each lists only its line
// neighbours as peers, so discovery yields exactly the line.
type fleet struct {
	members []*member
}

// newLine builds and starts n nodes in a line and waits until every
// node sees its line neighbours. gateways names the members that serve
// clients.
func newLine(n int, gateways map[int]bool, tc *tracer) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		m, err := newMember(fmt.Sprintf("n%d", i), gateways[i], tc)
		if err != nil {
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
	}
	for i, m := range f.members {
		for _, j := range []int{i - 1, i + 1} {
			if j < 0 || j >= n {
				continue
			}
			if err := m.tr.AddPeer(f.members[j].tr.Addr()); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	for _, m := range f.members {
		m.tr.Start()
	}
	err := waitFor(5*time.Second, "neighbour discovery", func() bool {
		for i, m := range f.members {
			if want := min(i, 1) + min(n-1-i, 1); len(m.node.Neighbors()) != want {
				return false
			}
		}
		return true
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	for _, m := range f.members {
		m.close()
	}
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", limit, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
