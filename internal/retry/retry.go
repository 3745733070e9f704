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

// Policy describes a bounded retry schedule: up to 4 attempts,
// exponential backoff doubling from 50ms to at most 1s, plus up to half
// the current backoff in seeded jitter so synchronized callers
// de-correlate deterministically per seed. Build policies with New.
type Policy struct {
	retries   int           // attempt budget per call
	base, max time.Duration // first retry delay and its doubling cap

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a policy with the default schedule whose jitter derives
// from seed, so retry timing reproduces run to run.
func New(seed int64) *Policy {
	return &Policy{
		retries: 4,
		base:    50 * time.Millisecond,
		max:     time.Second,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Backoff returns the jittered delay to sleep before attempt (1-based:
// attempt 0 is the first try and never sleeps). It is safe for
// concurrent use; jitter draws are serialized on the policy's seeded
// source.
func (p *Policy) Backoff(attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := p.base
	for i := 1; i < attempt && d < p.max; i++ {
		d *= 2
	}
	d = min(d, p.max)
	p.mu.Lock()
	defer p.mu.Unlock()
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
	var lastErr error
	for attempt := 0; attempt < p.retries; attempt++ {
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
	return fmt.Errorf("retry: %d attempts exhausted: %w", p.retries, lastErr)
}
