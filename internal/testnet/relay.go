package testnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/transport"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// Relay routes real UDP datagrams between node processes, one socket
// per undirected link, applying fault decisions at the packet layer —
// the testnet's stand-in for a lossy radio. Each endpoint lists the
// link socket as its peer address; the relay attributes every frame to
// an endpoint by the sender ID in the frame header (not the source
// port, which changes when a process restarts) and forwards it to the
// opposite endpoint's last observed real address.
type Relay struct {
	mu    sync.Mutex
	links map[string]*link
	rng   *rand.Rand // seeds per-link RNGs; never used on the hot path
}

// RelayStats aggregates packet accounting across all links.
type RelayStats struct {
	Forwarded  int64
	Dropped    int64
	Corrupted  int64
	Duplicated int64
}

type link struct {
	mu   sync.Mutex
	conn *net.UDPConn
	a, b string // endpoint node IDs, sorted

	addrA, addrB *net.UDPAddr // learned from observed frames
	rng          *rand.Rand

	// faults is the state Apply last pushed, and tick the wall time of
	// one of its latency rounds.
	faults transport.Faults
	tick   time.Duration

	closed atomic.Bool

	forwarded, dropped, corrupted, duplicated atomic.Int64
}

// NewRelay creates an empty relay whose per-link fault lotteries are
// derived from seed.
func NewRelay(seed int64) *Relay {
	return &Relay{
		links: make(map[string]*link),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// AddLink binds a loopback socket for the undirected link {a, b} and
// returns its address — the peer address BOTH endpoints must dial.
func (r *Relay) AddLink(a, b string) (string, error) {
	if a == b {
		return "", fmt.Errorf("testnet: self-link %q", a)
	}
	if a > b {
		a, b = b, a
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := linkKey(a, b)
	if _, dup := r.links[key]; dup {
		return "", fmt.Errorf("testnet: duplicate link %s-%s", a, b)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", fmt.Errorf("testnet: bind link %s-%s: %w", a, b, err)
	}
	l := &link{
		conn: conn,
		a:    a,
		b:    b,
		rng:  rand.New(rand.NewSource(r.rng.Int63())),
	}
	r.links[key] = l
	go l.run()
	return conn.LocalAddr().String(), nil
}

// Close shuts down every link socket.
func (r *Relay) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.links {
		l.closed.Store(true)
		_ = l.conn.Close()
	}
}

// Stats sums packet accounting over all links.
func (r *Relay) Stats() RelayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s RelayStats
	for _, l := range r.links {
		s.Forwarded += l.forwarded.Load()
		s.Dropped += l.dropped.Load()
		s.Corrupted += l.corrupted.Load()
		s.Duplicated += l.duplicated.Load()
	}
	return s
}

// Apply pushes a fault state to every link, replacing the last one.
// Latencies are in rounds of tick wall time, added to the loopback's
// own; a link whose endpoints straddle the cut is blocked both ways.
// Paused nodes are the harness's business (SIGSTOP), not the relay's.
func (r *Relay) Apply(f transport.Faults, tick time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.links {
		l.mu.Lock()
		l.faults, l.tick = f, tick
		l.mu.Unlock()
	}
}

// run is the link's forwarding loop: read a frame, attribute it by
// sender ID, run the fault lottery, forward (possibly late, possibly
// twice, possibly corrupted) to the opposite endpoint.
func (l *link) run() {
	buf := make([]byte, 65536)
	for {
		n, raddr, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		sender, ok := udp.FrameSender(buf[:n])
		if !ok {
			continue // not a TOTA frame; nothing to attribute
		}
		frame := make([]byte, n)
		copy(frame, buf[:n])

		l.mu.Lock()
		var dst *net.UDPAddr
		dir := transport.Link{From: sender}
		switch string(sender) {
		case l.a:
			l.addrA = raddr
			dst, dir.To = l.addrB, tuple.NodeID(l.b)
		case l.b:
			l.addrB = raddr
			dst, dir.To = l.addrA, tuple.NodeID(l.a)
		default:
			l.mu.Unlock()
			continue // foreign ID: not this link's traffic
		}
		f := &l.faults
		blocked := f.Cut[dir.From] != f.Cut[dir.To]
		if blocked || dst == nil {
			// Partitioned, or the far endpoint has not spoken yet
			// (its address is unknown until its first frame).
			l.mu.Unlock()
			if blocked {
				l.dropped.Add(1)
			}
			continue
		}
		loss := f.Loss
		if p, ok := f.LinkLoss[dir]; ok {
			loss = p
		}
		if loss > 0 && l.rng.Float64() < loss {
			l.mu.Unlock()
			l.dropped.Add(1)
			continue
		}
		if f.Corrupt > 0 && l.rng.Float64() < f.Corrupt {
			if hdr, ok := udp.FrameHeaderLen(frame); ok && len(frame) > hdr {
				body := transport.CorruptBytes(l.rng, frame[hdr:])
				copy(frame[hdr:], body)
				l.corrupted.Add(1)
			}
		}
		sendTwice := f.Dup > 0 && l.rng.Float64() < f.Dup
		d := transport.LinkDelay{Rounds: f.Delay}
		if ld, ok := f.LinkDelay[dir]; ok {
			d = ld
		}
		delay := time.Duration(d.Rounds) * l.tick
		if jitter := time.Duration(d.Jitter) * l.tick; jitter > 0 {
			delay += time.Duration(l.rng.Int63n(int64(jitter)))
		}
		l.mu.Unlock()

		deliver := func() {
			if l.closed.Load() {
				return
			}
			if _, err := l.conn.WriteToUDP(frame, dst); err == nil {
				l.forwarded.Add(1)
			}
			if sendTwice {
				if _, err := l.conn.WriteToUDP(frame, dst); err == nil {
					l.duplicated.Add(1)
				}
			}
		}
		if delay > 0 {
			time.AfterFunc(delay, deliver)
			continue
		}
		deliver()
	}
}
