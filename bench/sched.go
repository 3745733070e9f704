package main

import (
	"sync/atomic"
	"time"
)

// lateLimit is how long after it was due an operation's result still
// counts: anything later is a failed delivery.
const lateLimit = time.Second

// openLoop issues n operations on a fixed schedule from the calling
// goroutine: operation i is due at start + i·interval whatever happened
// to the operations before it. It never skips or re-times one — when
// issue blocks because the target stalls, the operations that came due
// meanwhile go out late, back to back. issue is handed the due time, and
// every operation is timed from it, so the wait a stall imposed counts
// (no coordinated omission). The return value is how late each operation
// was issued, in µs: the generator's own lateness (a timer that fires
// late) is in the latencies too and is reported here so it can be told
// apart.
func openLoop(n int, interval time.Duration, clock func() time.Duration, sleep func(time.Duration),
	issue func(i int, due time.Duration)) (lateUS []float64) {
	lateUS = make([]float64, n)
	start := clock() + interval
	for i := 0; i < n; i++ {
		due := start + time.Duration(i)*interval
		if wait := due - clock(); wait > 0 {
			sleep(wait)
		}
		lateUS[i] = us(clock() - due)
		issue(i, due)
	}
	return lateUS
}

// gate bounds the operations in flight in a closed loop. The issuing
// goroutine calls acquire before each operation; whoever observes a
// completion calls release.
type gate struct {
	limit    atomic.Int64 // set between phases, while nothing is in flight
	inFlight atomic.Int64
	wake     chan struct{} // capacity 1: a release that finds it full has already woken the issuer
}

func newGate() *gate { return &gate{wake: make(chan struct{}, 1)} }

func (g *gate) setLimit(n int) { g.limit.Store(int64(n)) }

// acquire blocks until fewer than limit operations are in flight and
// takes a slot. While blocked it calls reap every 50 ms so the caller
// can fail operations that outlived lateLimit and free their slots.
// Several goroutines may acquire at once.
func (g *gate) acquire(reap func()) {
	for {
		n := g.inFlight.Load()
		if n < g.limit.Load() {
			if g.inFlight.CompareAndSwap(n, n+1) {
				return
			}
			continue
		}
		select {
		case <-g.wake:
		case <-time.After(50 * time.Millisecond):
			reap()
		}
	}
}

func (g *gate) release() {
	g.inFlight.Add(-1)
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// drain waits until nothing is in flight, reaping as acquire does.
func (g *gate) drain(reap func()) {
	for g.inFlight.Load() > 0 {
		select {
		case <-g.wake:
		case <-time.After(50 * time.Millisecond):
			reap()
		}
	}
}
