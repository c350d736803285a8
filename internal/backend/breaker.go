package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// breaker is one member's circuit breaker, layered on top of the
// pool's probe cache. The probe cache answers "did the member respond
// to a health check recently"; the breaker answers "have actual calls
// been failing", which catches the member that passes /healthz but
// times out or 5xxes real work.
//
// States: closed (normal), open (tripped — the member takes no calls
// until the cooldown passes), half-open (cooldown passed — exactly one
// probe call is admitted; success closes the breaker, failure re-opens
// it with a doubled cooldown, capped at 16× the base).
type breaker struct {
	threshold int           // consecutive transient failures that trip it
	cooldown  time.Duration // base open duration

	mu      sync.Mutex
	state   breakerState
	fails   int       // consecutive failures while closed
	trips   int       // consecutive opens without a close in between
	until   time.Time // open state expiry
	probing bool      // a half-open probe call is in flight
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// candidate reports whether the member may be offered work right now,
// WITHOUT claiming the half-open probe slot — safe to call while
// building candidate lists that may not dispatch to this member.
func (b *breaker) candidate(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return !now.Before(b.until)
	default: // half-open
		return !b.probing
	}
}

// acquire admits one call at dispatch time. In half-open it claims the
// single probe slot; the claim is released by success, failure or
// release. Returns false when the member must not take the call.
func (b *breaker) acquire(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a working call: the breaker closes and all failure
// history resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.trips = 0
	b.probing = false
}

// failure records a transient call failure. A closed breaker trips
// after `threshold` consecutive failures; a half-open probe failing
// re-opens immediately with an escalated cooldown.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		b.open(now)
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.open(now)
		}
	}
}

// release abandons a call without a verdict (caller cancellation): the
// half-open probe slot frees so the next call can probe instead.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// open transitions to open with the escalated cooldown. Caller holds mu.
func (b *breaker) open(now time.Time) {
	b.state = breakerOpen
	b.fails = 0
	if b.trips < 4 {
		b.trips++ // cooldown caps at 16× base
	}
	b.until = now.Add(b.cooldown << (b.trips - 1))
}

// snapshot returns the state name for observability/tests.
func (b *breaker) snapshot() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}

// recordOutcome feeds one member call's outcome to its breaker.
// Success and deterministic (non-transient) errors both prove the
// member works; caller-side cancellation proves nothing and only
// releases a probe claim; transient failures count toward tripping.
func (p *Pool) recordOutcome(i int, err error) {
	b := p.breakers[i]
	switch {
	case err == nil:
		b.success()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		b.release()
	case transientErr(err):
		b.failure(time.Now())
	default:
		b.success()
	}
}

// breakerCandidates filters probe-healthy members down to those whose
// breaker admits work. An empty result is an error: every member is
// tripped, and failing fast beats hammering a fleet that just proved
// it cannot serve.
func (p *Pool) breakerCandidates(up []int) ([]int, error) {
	now := time.Now()
	out := make([]int, 0, len(up))
	for _, i := range up {
		if p.breakers[i].candidate(now) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("backend: every member of %s has an open circuit breaker", p.Name())
	}
	return out, nil
}

// breakerAcquire claims dispatch admission for member i.
func (p *Pool) breakerAcquire(i int) bool {
	return p.breakers[i].acquire(time.Now())
}

// BreakerStates reports each member's breaker state, in member order —
// observability for operators and the chaos suite.
func (p *Pool) BreakerStates() []string {
	out := make([]string, len(p.breakers))
	for i, b := range p.breakers {
		out[i] = b.snapshot()
	}
	return out
}
