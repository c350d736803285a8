package backend

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestBreakerStateMachine walks the breaker through its whole life:
// trip after threshold consecutive failures, refuse work while open,
// admit exactly one half-open probe after the cooldown, escalate the
// cooldown on a failed probe, and close on a successful one.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{threshold: 3, cooldown: time.Second}
	t0 := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		b.failure(t0)
	}
	if !b.candidate(t0) {
		t.Fatal("breaker tripped before threshold")
	}
	b.failure(t0) // third consecutive failure trips it
	if b.candidate(t0) || b.acquire(t0) {
		t.Fatal("open breaker admitted work")
	}
	if b.snapshot() != "open" {
		t.Fatalf("state %q, want open", b.snapshot())
	}

	// Past the cooldown exactly one probe call is admitted.
	t1 := t0.Add(time.Second)
	if !b.acquire(t1) {
		t.Fatal("half-open probe refused after cooldown")
	}
	if b.acquire(t1) {
		t.Fatal("second concurrent half-open probe admitted")
	}
	// The probe fails: re-open with a doubled cooldown.
	b.failure(t1)
	if b.acquire(t1.Add(time.Second)) {
		t.Fatal("re-opened breaker ignored its escalated (2x) cooldown")
	}
	t2 := t1.Add(2 * time.Second)
	if !b.acquire(t2) {
		t.Fatal("probe refused after the escalated cooldown")
	}
	b.success()
	if b.snapshot() != "closed" || !b.acquire(t2) {
		t.Fatal("successful probe did not close the breaker")
	}

	// A released (cancelled) probe frees the slot without a verdict.
	b.failure(t2)
	b.failure(t2)
	b.failure(t2)
	t3 := t2.Add(time.Second)
	if !b.acquire(t3) {
		t.Fatal("probe refused")
	}
	b.release()
	if !b.acquire(t3) {
		t.Fatal("released probe slot not reusable")
	}
}

// TestPoolBreakerTripsOnRepeatedCallFailures: a member that answers
// health probes but keeps failing real calls is tripped out of the
// rotation after threshold failures, and comes back through a
// half-open probe once it recovers.
func TestPoolBreakerTripsOnRepeatedCallFailures(t *testing.T) {
	var calls atomic.Int64
	var healthy atomic.Bool
	flaky := &fakeBackend{
		name: "flaky", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			calls.Add(1)
			if healthy.Load() {
				return core.Result{Solved: true, Array: []int{0}, Winner: 0}, nil
			}
			return core.Result{}, &RemoteError{Backend: "flaky", Err: fmt.Errorf("connection reset")}
		},
	}
	pool, err := NewPool([]Backend{flaky, NewLocal()}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny probe TTL: probes alone would put the flaky member right back
	// into the rotation — the breaker is what must keep it out. A short
	// cooldown keeps the test fast.
	pool.healthTTL = time.Millisecond
	for _, b := range pool.breakers {
		b.threshold, b.cooldown = 2, 80*time.Millisecond
	}
	solve := func() {
		t.Helper()
		res, err := pool.SolveSpec(context.Background(), "costas n=10 seed=3", core.Options{})
		if err != nil || !res.Solved {
			t.Fatalf("solve: res=%+v err=%v", res, err)
		}
	}

	for i := 0; i < 2; i++ {
		time.Sleep(3 * time.Millisecond) // let the probe TTL lapse
		solve()                          // fails on flaky, fails over to Local
	}
	if got := pool.BreakerStates()[0]; got != "open" {
		t.Fatalf("breaker state %q after %d failures, want open", got, calls.Load())
	}
	tripped := calls.Load()

	// While open, the probe-healthy member takes no calls at all.
	for i := 0; i < 3; i++ {
		time.Sleep(3 * time.Millisecond)
		solve()
	}
	if got := calls.Load(); got != tripped {
		t.Fatalf("open breaker let %d calls through", got-tripped)
	}

	// The member recovers; after the cooldown one half-open probe call
	// succeeds and the breaker closes.
	healthy.Store(true)
	time.Sleep(100 * time.Millisecond)
	solve()
	if got := pool.BreakerStates()[0]; got != "closed" {
		t.Fatalf("breaker state %q after recovery, want closed", got)
	}
	if calls.Load() != tripped+1 {
		t.Fatalf("recovery probe calls = %d, want 1", calls.Load()-tripped)
	}
}

// TestPoolHedgedSolve: a member that sits on a single solve past
// HedgeAfter gets a duplicate dispatched to the next member; the fast
// member's verdict wins and the straggler is cancelled.
func TestPoolHedgedSolve(t *testing.T) {
	var slowCancelled atomic.Bool
	slow := &fakeBackend{
		name: "slow", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			select {
			case <-ctx.Done():
				slowCancelled.Store(true)
				return core.Result{}, &RemoteError{Backend: "slow", Err: ctx.Err()}
			case <-time.After(5 * time.Second):
				return core.Result{}, fmt.Errorf("hedge never fired")
			}
		},
	}
	var fastCalls atomic.Int64
	fast := &fakeBackend{
		name: "fast", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			fastCalls.Add(1)
			return core.Result{Solved: true, Array: []int{0}, Winner: 0}, nil
		},
	}
	pool, err := NewPool([]Backend{slow, fast}, PoolConfig{HedgeAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := pool.SolveSpec(context.Background(), "costas n=10 seed=3", core.Options{})
	if err != nil || !res.Solved {
		t.Fatalf("hedged solve: res=%+v err=%v", res, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedge did not rescue the solve (took %v)", elapsed)
	}
	if fastCalls.Load() != 1 {
		t.Fatalf("fast member calls = %d, want 1", fastCalls.Load())
	}
	// The straggling primary is cancelled once the verdict is in.
	deadline := time.Now().Add(2 * time.Second)
	for !slowCancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !slowCancelled.Load() {
		t.Fatal("straggler primary never saw cancellation")
	}
}
