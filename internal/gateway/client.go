package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"time"

	"tota/internal/retry"
	"tota/internal/tuple"
)

// Client errors.
var (
	ErrClientClosed = errors.New("gateway: client closed")
	ErrTimeout      = errors.New("gateway: request timed out")
	ErrDisconnected = errors.New("gateway: not connected")
)

// errConnGone reports that the connection a request was bound to is no
// longer the client's current one.
var errConnGone = errors.New("gateway: bound connection gone")

// ClientConfig tunes a Client; zero values select defaults.
type ClientConfig struct {
	// Policy is the request retry/backoff budget (shared machinery
	// with the testnet poller, internal/retry). Nil gets retry.New(1).
	Policy *retry.Policy
	// RequestTimeout bounds one RPC round trip (default 5s).
	RequestTimeout time.Duration
	// DialTimeout bounds one connection attempt (default 3s).
	DialTimeout time.Duration
	// ReconnectMax caps the backoff between reconnection attempts
	// (default 2s). Reconnection retries forever while the client is
	// open — transparent resubscribe-with-replay is the whole point.
	ReconnectMax time.Duration
	// EventBuffer is each subscription's delivery channel depth
	// (default 1024). A consumer that stops draining eventually
	// backpressures the socket, which surfaces at the gateway as
	// accounted slow-consumer drops.
	EventBuffer int
	// Registry decodes event and read tuples; defaults to
	// tuple.DefaultRegistry.
	Registry *tuple.Registry
}

// SubEvent is one delivery on a subscription channel.
type SubEvent struct {
	// Type is the engine event name ("tuple-arrived", "tuple-removed",
	// "neighbor-added", "neighbor-removed").
	Type string
	// Tuple is the decoded event tuple (nil if its kind is unknown to
	// the client registry).
	Tuple tuple.Tuple
	// Peer is set on neighbor events.
	Peer string
	// GSeq is the per-gateway global sequence; strictly increasing per
	// subscription within one Epoch after client-side dedup. A filtered
	// subscription legitimately skips the GSeq values held by
	// non-matching events.
	GSeq uint64
	// DSeq is the per-subscription delivery sequence on the current
	// server-side attachment: it counts only events matching this
	// subscription's template, restarting at 1 on each (re)subscribe,
	// so a gap in DSeq means matched events went missing — which only
	// the drop accounting may explain (verified internally; see
	// GapViolations).
	DSeq uint64
	// Drops is the cumulative slow-consumer drop count over the
	// subscription's whole lifetime, accumulated client-side across
	// reconnects: growth means the gateway shed matched events to this
	// connection's bounded queue, so a consumer needing a complete view
	// should rebuild (e.g. by a Read).
	Drops uint64
	// Replay marks events re-delivered from the gateway's ring.
	Replay bool
	// Resync marks a synthetic marker event (no tuple): the gateway
	// epoch changed or replay missed, so state accumulated before this
	// point is unreliable and should be rebuilt (e.g. by a Read).
	Resync bool
	// Epoch is the gateway instance the event came from.
	Epoch string
}

// Subscription is a client-side subscription handle. It survives
// reconnects: the client transparently resubscribes with
// replay-from-seq and dedups redelivered events, so Events sees every
// event at least once, in order, per epoch.
type Subscription struct {
	c   *Client
	tpl tuple.Template
	// Events delivers matching engine events; closed by Unsubscribe
	// and Client.Close.
	Events chan SubEvent

	// sendMu serializes every send on Events with its close: a send can
	// only happen with sendMu held and the closed flag unset, and shut
	// closes Events under sendMu, so a delivery can never race
	// Unsubscribe into a send on a closed channel. done aborts a send
	// blocked on a full Events channel so shut cannot deadlock behind a
	// consumer that stopped draining.
	sendMu sync.Mutex
	done   chan struct{}

	// estMu serializes establishment RPCs for this handle: Subscribe's
	// retry loop and the connection manager's resubscribe sweep can
	// race after a dial, and without serialization the loser installs a
	// duplicate server-side subscription the client then orphans
	// (doubling event traffic and inflating the subscriptions gauge).
	estMu sync.Mutex

	mu       sync.Mutex
	serverID uint64   // id on the current connection, 0 when detached
	serverNC net.Conn // the connection serverID was issued on
	epoch    string
	lastSeq  uint64
	lastDSeq uint64
	// drops tracks the current server-side attachment's cumulative drop
	// counter (it restarts at zero on every resubscribe); dropsBase
	// accumulates the drops observed on previous attachments so Drops()
	// and SubEvent.Drops stay monotonic over the handle's lifetime.
	drops     uint64
	dropsBase uint64
	closed    bool
	gapErrors int
	// needResync is set by the read loop when a subscribe ack revealed
	// an epoch change or replay miss; resubscribe consumes it to emit
	// the Resync marker from its own goroutine.
	needResync bool
}

// Drops returns the cumulative slow-consumer drops over the
// subscription's lifetime, across reconnects.
func (s *Subscription) Drops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropsBase + s.drops
}

// deliver sends ev to the consumer unless the subscription is (or
// becomes) closed. See sendMu for why this can neither panic on a
// closed channel nor deadlock a concurrent Unsubscribe.
func (s *Subscription) deliver(ev SubEvent, closec <-chan struct{}) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	select {
	case s.Events <- ev:
	case <-s.done:
	case <-closec:
	}
}

// shut marks the subscription closed and closes Events exactly once;
// false means it was already closed. Closing done first aborts any
// delivery blocked on a full channel, then taking sendMu waits out any
// in-flight send before the channel closes.
func (s *Subscription) shut() bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	s.sendMu.Lock()
	close(s.Events)
	s.sendMu.Unlock()
	return true
}

// GapViolations counts events whose delivery-sequence gap was NOT
// covered by the gateway's drop accounting — zero on a healthy run;
// non-zero means the no-silent-gaps contract broke. The check runs in
// the per-subscription delivery sequence (DSeq), so it is meaningful
// for filtered templates too.
func (s *Subscription) GapViolations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gapErrors
}

// Client is the resilient gateway RPC client: request timeouts,
// bounded retries with seeded-jitter exponential backoff (shared with
// the testnet poller via internal/retry), and transparent
// resubscribe-with-replay across reconnects.
type Client struct {
	addr string
	cfg  ClientConfig

	mu      sync.Mutex
	nc      net.Conn // current connection, nil while down
	pending map[uint64]chan Response
	// subFor maps an in-flight subscribe request seq to its
	// subscription, so the read loop can apply the ack (server sub id,
	// epoch, sequence reset) BEFORE it dispatches the replay events the
	// gateway writes immediately after the ack. Applying the ack from
	// the resubscribe goroutine instead would race those events into
	// dispatchEvent with no registered server id, silently dropping the
	// replay.
	subFor map[uint64]*Subscription
	// route maps a server-side subscription id to its handle, from its
	// subscribe ack until it is removed or the connection is gone.
	route  map[uint64]*Subscription
	reqSeq uint64
	subs   []*Subscription
	closed bool

	closec      chan struct{}
	kick        chan struct{} // nudges the manager to reconnect now
	managerDone chan struct{}
}

// Dial creates a client for the gateway at addr and starts its
// connection manager. It returns immediately; the first RPC blocks
// until a connection exists or its retry budget is spent.
func Dial(addr string, cfg ClientConfig) *Client {
	if cfg.Policy == nil {
		cfg.Policy = retry.New(1)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 2 * time.Second
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 1024
	}
	if cfg.Registry == nil {
		cfg.Registry = tuple.DefaultRegistry
	}
	c := &Client{
		addr:        addr,
		cfg:         cfg,
		pending:     make(map[uint64]chan Response),
		subFor:      make(map[uint64]*Subscription),
		route:       make(map[uint64]*Subscription),
		closec:      make(chan struct{}),
		kick:        make(chan struct{}, 1),
		managerDone: make(chan struct{}),
	}
	go c.manage()
	return c
}

// Close shuts the client down: the connection drops, pending requests
// fail, and every subscription channel closes.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nc := c.nc
	c.nc = nil
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	close(c.closec)
	if nc != nil {
		_ = nc.Close()
	}
	<-c.managerDone
	c.failPending()
	for _, s := range subs {
		s.shut()
	}
	return nil
}

// manage owns the connection lifecycle: dial with capped backoff,
// resubscribe every registered subscription with replay-from-seq, run
// the read loop until the connection dies, repeat.
func (c *Client) manage() {
	defer close(c.managerDone)
	attempt := 0
	for {
		select {
		case <-c.closec:
			return
		default:
		}
		nc, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
		if err != nil {
			attempt++
			backoff := time.NewTimer(c.reconnectBackoff(attempt))
			select {
			case <-backoff.C:
			case <-c.closec:
				backoff.Stop()
				return
			}
			continue
		}
		attempt = 0
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			_ = nc.Close()
			return
		}
		c.nc = nc
		subs := append([]*Subscription(nil), c.subs...)
		c.mu.Unlock()

		// The read loop must run before resubscribe RPCs can see their
		// responses.
		readDone := make(chan struct{})
		go func() {
			defer close(readDone)
			c.readLoop(nc)
		}()
		for _, s := range subs {
			if err := c.resubscribe(s); err != nil {
				break // connection died mid-resubscribe; redial
			}
		}
		select {
		case <-readDone:
		case <-c.closec:
			_ = nc.Close()
			<-readDone
			return
		}
		c.mu.Lock()
		if c.nc == nc {
			c.nc = nil
		}
		c.mu.Unlock()
		c.failPending()
		c.detachSubs()
	}
}

// reconnectBackoff doubles from the policy base to ReconnectMax with
// the policy's seeded jitter.
func (c *Client) reconnectBackoff(attempt int) time.Duration {
	d := c.cfg.Policy.Backoff(attempt)
	if d > c.cfg.ReconnectMax {
		d = c.cfg.ReconnectMax
	}
	return d
}

// readLoop demuxes gateway frames: responses to pending RPCs, events
// to their subscriptions. Event frames and inject responses as the
// gateway writes them are decoded in one pass (decodeEvent,
// decodeResponse); encoding/json gets every other frame, and with it the
// last word on what is malformed.
func (c *Client) readLoop(nc net.Conn) {
	br, scratch := bufio.NewReaderSize(nc, eventBufBytes), make([]byte, 4096)
	for {
		body, err := readFrameBody(br, scratch)
		if err != nil {
			_ = nc.Close()
			return
		}
		if ev, t, ok := decodeEvent(c.cfg.Registry, body); ok {
			c.dispatchEvent(ev, t)
			continue
		}
		var fr Frame
		if resp, ok := decodeResponse(body); ok {
			fr.Resp = &resp
		} else if err := json.Unmarshal(body, &fr); err != nil {
			_ = nc.Close()
			return
		}
		switch {
		case fr.Resp != nil:
			c.mu.Lock()
			ch := c.pending[fr.Resp.Seq]
			delete(c.pending, fr.Resp.Seq)
			sub := c.subFor[fr.Resp.Seq]
			delete(c.subFor, fr.Resp.Seq)
			c.mu.Unlock()
			if sub != nil && fr.Resp.Err == "" {
				// Subscribe ack: register the server id and sequence
				// state here, in the same goroutine that dispatches
				// events, so the replay frames right behind this ack
				// route to the subscription instead of vanishing.
				c.applySubscribeAck(sub, *fr.Resp, nc)
			}
			if ch != nil {
				ch <- *fr.Resp
			}
		case fr.Event != nil:
			c.dispatchEvent(*fr.Event, nil)
		}
	}
}

// dispatchEvent routes one event frame to its subscription, dedups by
// sequence, verifies gap accounting and delivers to the consumer. t is
// the event's tuple when the frame decoder already decoded it.
func (c *Client) dispatchEvent(ev Event, t tuple.Tuple) {
	c.mu.Lock()
	target := c.route[ev.Sub]
	c.mu.Unlock()
	if target == nil {
		return
	}
	target.mu.Lock()
	// Gap verification runs in the per-subscription delivery sequence
	// (DSeq), which counts only events matching this subscription's
	// template: a filtered subscription legitimately skips global
	// sequence numbers held by non-matching events, but a DSeq gap
	// means matched events went missing, which only accounted drops may
	// explain. Both trackers reset on every subscribe ack (fresh
	// server-side attachment, fresh counter spaces), so the check is
	// valid from the first delivery.
	if ev.DSeq > target.lastDSeq {
		if gap := ev.DSeq - target.lastDSeq - 1; gap > 0 {
			if ev.Drops < target.drops+gap {
				target.gapErrors++
			}
		}
		target.lastDSeq = ev.DSeq
	}
	if ev.Drops > target.drops {
		target.drops = ev.Drops
	}
	cumDrops := target.dropsBase + target.drops
	if ev.GSeq <= target.lastSeq {
		// Redelivered (replay overlapping live fan-out): dedup, but
		// only after the sequence/drop trackers above advanced past it.
		target.mu.Unlock()
		return
	}
	target.lastSeq = ev.GSeq
	epoch := target.epoch
	target.mu.Unlock()
	out := SubEvent{
		Type:   ev.Type,
		Peer:   ev.Peer,
		GSeq:   ev.GSeq,
		DSeq:   ev.DSeq,
		Drops:  cumDrops,
		Replay: ev.Replay,
		Epoch:  epoch,
	}
	if t == nil && len(ev.Tuple) > 0 {
		t, _ = tuple.UnmarshalTupleJSON(c.cfg.Registry, ev.Tuple) // nil if its kind is unknown here
	}
	out.Tuple = t
	target.deliver(out, c.closec)
}

// resubscribe re-establishes one subscription on the current
// connection, requesting replay from the last sequence seen. On an
// epoch change or replay miss it emits a Resync marker first so the
// consumer knows to rebuild its state. Calls serialize on estMu and
// skip when the handle is already attached (serverID set), so two
// racing establishers send at most one subscribe RPC.
func (c *Client) resubscribe(s *Subscription) error {
	s.estMu.Lock()
	defer s.estMu.Unlock()
	s.mu.Lock()
	if s.closed || s.serverID != 0 {
		s.mu.Unlock()
		return nil
	}
	tplJSON, err := tuple.MarshalTemplateJSON(s.tpl)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	req := Request{
		Op:       OpSubscribe,
		Template: tplJSON,
		FromSeq:  s.lastSeq,
		Epoch:    s.epoch,
	}
	s.mu.Unlock()
	resp, err := c.roundTripSub(req, s, nil)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	// The read loop already applied the ack (applySubscribeAck) before
	// handing us the response; here we only emit the Resync marker it
	// flagged, from outside the read loop so a full Events channel
	// cannot stall event dispatch.
	s.mu.Lock()
	resync := s.needResync
	s.needResync = false
	epoch := s.epoch
	s.mu.Unlock()
	if resync {
		s.deliver(SubEvent{Resync: true, Epoch: epoch}, c.closec)
	}
	return nil
}

// applySubscribeAck records a subscribe response's server-side state on
// the subscription, and nc as the connection it belongs to. It runs in
// the read-loop goroutine so it is ordered strictly before the replay
// events that follow the ack on the wire.
func (c *Client) applySubscribeAck(s *Subscription, resp Response, nc net.Conn) {
	c.mu.Lock()
	c.route[resp.Sub] = s
	c.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	epochChanged := s.epoch != "" && s.epoch != resp.Epoch
	missed := resp.Replay == ReplayMiss
	if epochChanged || missed {
		// Sequence space reset (or partially evicted): everything
		// accumulated so far is unreliable. Reset tracking so the new
		// epoch's replay passes dedup, and flag the consumer to rebuild.
		s.lastSeq = 0
		s.needResync = true
	}
	// Every ack is a fresh server-side attachment whose delivery
	// sequence and drop counter restart at zero — regardless of epoch
	// or replay outcome — so the client-side trackers must too, or a
	// stale counter would flag the next legitimate drop-covered gap as
	// a violation. Observed drops roll into dropsBase so Drops() stays
	// cumulative for consumers.
	s.dropsBase += s.drops
	s.drops = 0
	s.lastDSeq = 0
	s.epoch = resp.Epoch
	s.serverID = resp.Sub
	s.serverNC = nc
}

// detachSubs marks every subscription as having no server-side id, so
// stray events cannot misroute after reconnect.
func (c *Client) detachSubs() {
	c.mu.Lock()
	subs := append([]*Subscription(nil), c.subs...)
	c.route = make(map[uint64]*Subscription)
	c.mu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		s.serverID, s.serverNC = 0, nil
		s.mu.Unlock()
	}
}

// failPending aborts every in-flight round trip by closing its
// response channel. A close — not a synthesized Response — is what
// distinguishes a transport failure from a gateway verdict: do() must
// retry the former under the policy and only treat the latter as
// permanent.
func (c *Client) failPending() {
	c.mu.Lock()
	pend := c.pending
	c.pending = make(map[uint64]chan Response)
	c.subFor = make(map[uint64]*Subscription)
	c.mu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
}

// roundTripSub sends one request on the current connection and waits for
// its response (no retries: do wraps it with the policy). A subscribe
// request names its subscription, so that the read loop applies the ack
// before dispatching the replay events behind it. A request bound to a
// connection (on non-nil) goes out on that connection or not at all.
func (c *Client) roundTripSub(req Request, sub *Subscription, on net.Conn) (Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrClientClosed
	}
	nc := c.nc
	if on != nil && nc != on {
		c.mu.Unlock()
		return Response{}, errConnGone
	}
	if nc == nil {
		c.mu.Unlock()
		return Response{}, ErrDisconnected
	}
	c.reqSeq++
	req.Seq = c.reqSeq
	ch := make(chan Response, 1)
	c.pending[req.Seq] = ch
	if sub != nil {
		c.subFor[req.Seq] = sub
	}
	c.mu.Unlock()

	buf, err := EncodeFrame(req)
	if err != nil {
		c.abandon(req.Seq)
		return Response{}, err
	}
	_ = nc.SetWriteDeadline(time.Now().Add(c.cfg.RequestTimeout))
	if _, err := nc.Write(buf); err != nil {
		c.abandon(req.Seq)
		_ = nc.Close()
		return Response{}, err
	}
	// Stopped on every way out, or each call pins it for RequestTimeout.
	timeout := time.NewTimer(c.cfg.RequestTimeout)
	defer timeout.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			// failPending closed the channel: the connection died with
			// this request in flight. That is a transport error —
			// retryable under the policy — not a gateway verdict.
			return Response{}, ErrDisconnected
		}
		return resp, nil
	case <-timeout.C:
		c.abandon(req.Seq)
		return Response{}, ErrTimeout
	case <-c.closec:
		c.abandon(req.Seq)
		return Response{}, ErrClientClosed
	}
}

func (c *Client) abandon(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	delete(c.subFor, seq)
	c.mu.Unlock()
}

// do runs one RPC under the retry policy. A request bound to a
// connection (on non-nil) is done, with a zero Response, once that
// connection is gone: it names state that went with it.
func (c *Client) do(req Request, on net.Conn) (Response, error) {
	var resp Response
	err := c.cfg.Policy.Do(func() error {
		r, err := c.roundTripSub(req, nil, on)
		if err != nil {
			if errors.Is(err, errConnGone) {
				return nil
			}
			if errors.Is(err, ErrClientClosed) {
				return retry.Permanent(err)
			}
			return err
		}
		if r.Err != "" {
			// Application-level errors are permanent: retrying a bad
			// template or unknown kind cannot help.
			return retry.Permanent(errors.New(r.Err))
		}
		resp = r
		return nil
	}, c.closec)
	return resp, err
}

// Ping round-trips a no-op and returns the gateway's epoch and current
// event sequence.
func (c *Client) Ping() (epoch string, seq uint64, err error) {
	resp, err := c.do(Request{Op: OpPing}, nil)
	if err != nil {
		return "", 0, err
	}
	return resp.Epoch, resp.NextSeq, nil
}

// Inject creates t in the tuple space through the gateway and returns
// the assigned id.
func (c *Client) Inject(t tuple.Tuple) (tuple.ID, error) {
	if t == nil {
		return tuple.ID{}, fmt.Errorf("gateway: nil tuple")
	}
	resp, err := c.do(Request{Op: OpInject, Kind: t.Kind(), Content: t.Content()}, nil)
	if err != nil {
		return tuple.ID{}, err
	}
	return tuple.ParseID(resp.ID)
}

// Read queries the gateway node's local tuple space.
func (c *Client) Read(tpl tuple.Template) ([]tuple.Tuple, error) {
	tplJSON, err := tuple.MarshalTemplateJSON(tpl)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(Request{Op: OpRead, Template: tplJSON}, nil)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, raw := range resp.Tuples {
		t, err := tuple.UnmarshalTupleJSON(c.cfg.Registry, raw)
		if err != nil {
			continue
		}
		out = append(out, t)
	}
	return out, nil
}

// Subscribe registers a subscription for events matching tpl and
// blocks until the gateway acknowledges it (or the retry budget is
// spent). The subscription survives reconnects transparently.
func (c *Client) Subscribe(tpl tuple.Template) (*Subscription, error) {
	s := &Subscription{
		c:      c,
		tpl:    tpl,
		Events: make(chan SubEvent, c.cfg.EventBuffer),
		done:   make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.subs = append(c.subs, s)
	c.mu.Unlock()

	// Establish it now if connected; otherwise the manager will on the
	// next (re)connect. Either way the handle is registered, so the
	// subscription cannot be lost.
	err := c.cfg.Policy.Do(func() error {
		if err := c.resubscribe(s); err != nil {
			return err
		}
		s.mu.Lock()
		ok := s.serverID != 0
		s.mu.Unlock()
		if !ok {
			return ErrDisconnected
		}
		return nil
	}, c.closec)
	if err != nil {
		c.removeSub(s)
		return nil, err
	}
	return s, nil
}

// Unsubscribe drops the subscription and closes its channel.
func (c *Client) Unsubscribe(s *Subscription) error {
	if !s.shut() {
		return nil // already closed
	}
	c.removeSub(s)
	s.mu.Lock()
	serverID, nc := s.serverID, s.serverNC
	s.serverID, s.serverNC = 0, nil
	s.mu.Unlock()
	if serverID == 0 {
		return nil
	}
	// The gateway numbers subscriptions per connection, so serverID means
	// this subscription on nc only — on any other connection it may name
	// another handle's. If nc dies first, the gateway drops the
	// subscription with it and there is nothing left to unsubscribe.
	_, err := c.do(Request{Op: OpUnsubscribe, Sub: serverID}, nc)
	return err
}

func (c *Client) removeSub(s *Subscription) {
	c.mu.Lock()
	maps.DeleteFunc(c.route, func(_ uint64, cur *Subscription) bool { return cur == s })
	for i, cur := range c.subs {
		if cur == s {
			c.subs = append(c.subs[:i], c.subs[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}
