package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestWindowMedianIgnoresOneStall(t *testing.T) {
	// 100 operations at 1 ms; one window (10 operations) hit by a stall.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 30; i < 40; i++ {
		xs[i] = 250
	}
	if got := windowMedian(xs); got != 1 {
		t.Fatalf("windowMedian = %v, want 1: one stalled window must move nothing", got)
	}
	// Fewer samples than windows: plain median.
	if got := windowMedian([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("windowMedian of 3 samples = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tail(xs, 0.99); got != 0 {
		t.Fatalf("p99 of 999 samples = %v, want 0 (only 9.99 samples beyond)", got)
	}
	xs = append(xs, 999)
	if got := tail(xs, 0.99); math.Abs(got-989.01) > 1e-9 {
		t.Fatalf("p99 of 1000 samples = %v, want 989.01", got)
	}
	if got := tail(xs, 0.999); got != 0 {
		t.Fatalf("p999 of 1000 samples = %v, want 0 (1 sample beyond)", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// A target that stalls must not hide the stall: the operations that
// came due meanwhile are issued late, and their latency is taken from
// the due time (not from the issue time), so it contains the wait. A
// timer that fires late is timed from the due time too, and reported as
// the generator's lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n         = 200
		interval  = 2 * time.Millisecond
		service   = 100 * time.Microsecond
		stallAt   = 50
		stall     = 100 * time.Millisecond
		overshoot = 300 * time.Microsecond // every sleep returns this late
	)
	var clock time.Duration // a fake clock only the loop and the target advance
	now := func() time.Duration { return clock }
	sleep := func(d time.Duration) { clock += d + overshoot }
	latency := make([]time.Duration, n)
	fromIssue := make([]time.Duration, n)
	lateUS := openLoop(n, interval, now, sleep, func(i int, due time.Duration) {
		issued := clock
		clock += service
		if i == stallAt {
			clock += stall
		}
		latency[i] = clock - due
		fromIssue[i] = clock - issued
	})
	// Before the stall the generator sleeps for every operation and wakes
	// 0.3 ms late: that lateness is in the latency and reported.
	if latency[10] != overshoot+service || lateUS[10] != us(overshoot) {
		t.Fatalf("idle operation: latency %v (want %v), lateness %v us (want %v)", latency[10], overshoot+service, lateUS[10], us(overshoot))
	}
	// The operation right after the stall was due 2 ms into it and waited
	// for the rest; measured from its issue it would look like 0.1 ms.
	next := stallAt + 1
	if fromIssue[next] != service {
		t.Fatalf("latency from issue = %v, want %v", fromIssue[next], service)
	}
	waited := overshoot + service + stall - interval
	if latency[next] != waited+service {
		t.Fatalf("latency from due time = %v, want %v", latency[next], waited+service)
	}
	if lateUS[next] != us(waited) {
		t.Fatalf("reported lateness = %v us, want %v", lateUS[next], us(waited))
	}
	// The schedule does not move: the backlog of 2 ms slots drains at the
	// 0.1 ms service rate, about 53 operations, each one less late than
	// the one before, and then the generator sleeps again.
	backlog := 0
	for i := next; i < n && lateUS[i] > us(overshoot); i++ {
		if i > next && lateUS[i] >= lateUS[i-1] {
			t.Fatalf("operation %d is later (%v us) than its predecessor (%v us)", i, lateUS[i], lateUS[i-1])
		}
		backlog++
	}
	if backlog < 50 || backlog > 56 {
		t.Fatalf("%d operations were issued from the backlog, want about 53", backlog)
	}
	if latency[n-1] != overshoot+service || lateUS[n-1] != us(overshoot) {
		t.Fatalf("last operation: latency %v, lateness %v us: the generator did not return to its schedule", latency[n-1], lateUS[n-1])
	}
}

// A saturating sender takes its seq before it stamps the message, so the
// reaper can meet a seq that is not sent yet: it must not fail it.
func TestReapLeavesUnsentMessagesAlone(t *testing.T) {
	r := &route3{from: make([]atomic.Int64, 2), state: make([]atomic.Int32, 2), gate: newGate()}
	r.gate.inFlight.Store(2)
	r.from[0].Store(int64(now() - 2*lateLimit)) // sent long ago, never delivered
	r.reap(0, 2)
	if got := r.state[0].Load(); got != msgFailed {
		t.Fatalf("overdue message has state %d, want failed", got)
	}
	if got := r.state[1].Load(); got != msgPending {
		t.Fatalf("unsent message has state %d, want pending", got)
	}
	if got := r.gate.inFlight.Load(); got != 1 {
		t.Fatalf("%d slots in flight after the reap, want 1", got)
	}
}
