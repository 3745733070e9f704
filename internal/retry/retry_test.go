package retry

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffDoublesAndCaps(t *testing.T) {
	p := New(7)
	p.base = 10 * time.Millisecond
	p.max = 80 * time.Millisecond
	if d := p.Backoff(0); d != 0 {
		t.Fatalf("attempt 0 should not sleep, got %v", d)
	}
	// Jitter adds at most half the pre-jitter delay, so each attempt's
	// draw stays inside [d, 1.5d] with d capped at max.
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, base := range want {
		base *= time.Millisecond
		d := p.Backoff(i + 1)
		if d < base || d > base+base/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", i+1, d, base, base+base/2)
		}
	}
}

func TestBackoffJitterIsSeeded(t *testing.T) {
	draw := func() []time.Duration {
		p := New(42)
		var ds []time.Duration
		for i := 1; i <= 6; i++ {
			ds = append(ds, p.Backoff(i))
		}
		return ds
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDoStopsOnSuccess(t *testing.T) {
	p := New(1)
	p.base = time.Millisecond
	calls := 0
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	}, nil)
	if err != nil || calls != 3 {
		t.Fatalf("want success after 3 calls, got err=%v calls=%d", err, calls)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	p := New(1)
	p.retries = 3
	p.base = time.Millisecond
	calls := 0
	boom := errors.New("boom")
	err := p.Do(func() error { calls++; return boom }, nil)
	if calls != 3 {
		t.Fatalf("want 3 attempts, got %d", calls)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("exhausted error should wrap the cause, got %v", err)
	}
}

func TestDoPermanentShortCircuits(t *testing.T) {
	p := New(1)
	p.base = time.Millisecond
	calls := 0
	bad := errors.New("bad request")
	err := p.Do(func() error { calls++; return Permanent(bad) }, nil)
	if calls != 1 {
		t.Fatalf("permanent error should stop after 1 attempt, got %d", calls)
	}
	if !errors.Is(err, bad) {
		t.Fatalf("want the original cause back, got %v", err)
	}
	// A wrapped permanent error is still permanent.
	calls = 0
	err = p.Do(func() error { calls++; return fmt.Errorf("ctx: %w", Permanent(bad)) }, nil)
	if calls != 1 || !errors.Is(err, bad) {
		t.Fatalf("wrapped permanent: calls=%d err=%v", calls, err)
	}
}

func TestDoStopChannelInterruptsSleep(t *testing.T) {
	p := New(1)
	p.retries = 4
	p.base = time.Hour // would hang without the stop channel
	stop := make(chan struct{})
	close(stop)
	calls := 0
	start := time.Now()
	err := p.Do(func() error { calls++; return errors.New("transient") }, stop)
	if calls != 1 {
		t.Fatalf("want 1 attempt before stop, got %d", calls)
	}
	if err == nil || time.Since(start) > time.Second {
		t.Fatalf("stop should fail fast, err=%v elapsed=%v", err, time.Since(start))
	}
}
