// Package retry is the one retry/timeout/backoff implementation shared
// by every resilient caller in the repo: the testnet harness's HTTP
// poller and the gateway RPC client both face the same reality — the
// process on the other end may be mid-restart, SIGSTOPped, or behind a
// lossy relay, so transient refusal is the expected case — and keeping
// a single policy here means their backoff curves cannot drift apart.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Policy describes a bounded retry schedule: up to Retries attempts,
// exponential backoff doubling from BaseBackoff to MaxBackoff, plus up
// to half the current backoff in seeded jitter so synchronized callers
// de-correlate deterministically per seed. The zero value is unusable;
// build policies with New so the defaults apply.
type Policy struct {
	// Retries is the attempt budget per call (default 4).
	Retries int
	// BaseBackoff is the first retry delay (default 50ms); it doubles
	// per attempt up to MaxBackoff (default 1s), plus up to half of
	// itself in seeded jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a policy with the default schedule whose jitter derives
// from seed, so retry timing reproduces run to run.
func New(seed int64) *Policy {
	return &Policy{
		Retries:     4,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  time.Second,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// resolved returns the effective budget values with defaults applied,
// so a caller that tweaked only one field still gets sane others.
func (p *Policy) resolved() (retries int, base, max time.Duration) {
	retries = p.Retries
	if retries <= 0 {
		retries = 4
	}
	base = p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max = p.MaxBackoff
	if max <= 0 {
		max = time.Second
	}
	return retries, base, max
}

// Backoff returns the jittered delay to sleep before attempt (1-based:
// attempt 0 is the first try and never sleeps). It is safe for
// concurrent use; jitter draws are serialized on the policy's seeded
// source.
func (p *Policy) Backoff(attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	_, base, max := p.resolved()
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(1))
	}
	return d + time.Duration(p.rng.Int63n(int64(d/2)+1))
}

// ErrStop marks a permanent error: Do stops retrying and returns the
// wrapped cause immediately.
var ErrStop = errors.New("retry: permanent failure")

type permanentError struct{ cause error }

func (e permanentError) Error() string { return e.cause.Error() }
func (e permanentError) Unwrap() error { return e.cause }
func (permanentError) Is(target error) bool {
	return target == ErrStop
}

// Permanent marks err as not worth retrying (bad request, closed
// client); Do returns the original err on the next attempt boundary.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{cause: err}
}

// Do runs fn under the policy: it retries transient errors with the
// backoff schedule until the attempt budget is spent, stops early on
// nil or a Permanent error, and returns the last error annotated with
// the attempt count when the budget runs out. stop, when non-nil, is
// polled between attempts so a closing client interrupts the sleep.
func (p *Policy) Do(fn func() error, stop <-chan struct{}) error {
	retries, _, _ := p.resolved()
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(p.Backoff(attempt)):
			case <-stop:
				return fmt.Errorf("retry: stopped: %w", lastErr)
			}
		}
		err := fn()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrStop) {
			return errors.Unwrap(err)
		}
		lastErr = err
	}
	return fmt.Errorf("retry: %d attempts exhausted: %w", retries, lastErr)
}
