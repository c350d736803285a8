package backend

// Regression coverage for the retry/backoff policy fixes:
//
//   - 429 Too Many Requests is transient (an admission-controlled or
//     job-store-full worker is busy, not broken) and the server's
//     Retry-After header is the backoff floor — previously a Pool
//     coordinator abandoned work routed to a merely-busy worker;
//   - an already-expired context fails fast client-side instead of
//     clamping the wire timeout to 1ms and burning a doomed round trip.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

func TestRemoteError429IsTransient(t *testing.T) {
	if !(&RemoteError{Status: http.StatusTooManyRequests}).Transient() {
		t.Fatal("429 must be transient: the worker is busy, not broken")
	}
	if (&RemoteError{Status: http.StatusBadRequest}).Transient() {
		t.Fatal("400 must stay permanent")
	}
}

func TestRetryWaitHonorsRetryAfterFloor(t *testing.T) {
	cases := []struct {
		backoff time.Duration
		err     error
		want    time.Duration
	}{
		// Server hint above the backoff: the hint wins.
		{5 * time.Millisecond, &RemoteError{Status: 429, RetryAfter: 2 * time.Second}, 2 * time.Second},
		// Backoff already past the hint: keep the longer wait.
		{5 * time.Second, &RemoteError{Status: 429, RetryAfter: time.Second}, 5 * time.Second},
		// No hint, or not a RemoteError: plain backoff.
		{30 * time.Millisecond, &RemoteError{Status: 503}, 30 * time.Millisecond},
		{30 * time.Millisecond, errors.New("conn refused"), 30 * time.Millisecond},
	}
	for i, c := range cases {
		if got := retryWait(c.backoff, c.err, nil); got != c.want {
			t.Errorf("case %d: retryWait(%v, %v) = %v, want %v", i, c.backoff, c.err, got, c.want)
		}
	}
}

// TestRetryWaitJitter: with a jitter source the wait lands in
// [backoff/2, backoff] (anti-thundering-herd), and the server's
// Retry-After hint still floors whatever the draw produced.
func TestRetryWaitJitter(t *testing.T) {
	backoff := 100 * time.Millisecond
	err := &RemoteError{Status: 503}
	low := func(time.Duration) time.Duration { return 0 }
	high := func(max time.Duration) time.Duration { return max }
	if got := retryWait(backoff, err, low); got != backoff/2 {
		t.Fatalf("low draw: %v, want %v", got, backoff/2)
	}
	if got := retryWait(backoff, err, high); got != backoff {
		t.Fatalf("high draw: %v, want %v", got, backoff)
	}
	hinted := &RemoteError{Status: 429, RetryAfter: time.Second}
	if got := retryWait(backoff, hinted, low); got != time.Second {
		t.Fatalf("Retry-After floor lost under jitter: %v", got)
	}
	// The production source stays within the window too.
	for i := 0; i < 100; i++ {
		if got := retryWait(backoff, err, equalJitter); got < backoff/2 || got > backoff {
			t.Fatalf("default jitter draw %v outside [%v, %v]", got, backoff/2, backoff)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"":     0,
		"2":    2 * time.Second,
		" 1 ":  time.Second,
		"-3":   0,
		"soon": 0, // HTTP-date form unsupported; treated as absent
	} {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestRemoteRetries429WithRetryAfterTiming: a worker answering 429 +
// Retry-After is retried — after at least the advertised wait — and the
// call then completes. This is the wire-level regression test for the
// 429-kills-the-pool bug.
func TestRemoteRetries429WithRetryAfterTiming(t *testing.T) {
	inner := service.New(service.Config{})
	defer inner.Shutdown(context.Background())
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL)
	remote.backoff = time.Millisecond
	start := time.Now()
	res, err := remote.SolveSpec(context.Background(), "costas n=10 seed=2", core.Options{})
	elapsed := time.Since(start)
	if err != nil || !res.Solved {
		t.Fatalf("solve against a once-429 worker failed: res=%+v err=%v", res, err)
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (one 429, one success)", got)
	}
	// The 1ms configured backoff must have been floored by Retry-After: 1.
	if elapsed < 900*time.Millisecond {
		t.Fatalf("retry waited only %v; Retry-After of 1s was not honoured as the floor", elapsed)
	}
}

// TestPoolBatchSurvives429Worker: the acceptance-criteria scenario — a
// Pool batch whose only route answers 429 first completes via retry
// instead of surfacing a permanent error.
func TestPoolBatchSurvives429Worker(t *testing.T) {
	inner := service.New(service.Config{})
	defer inner.Shutdown(context.Background())
	var rateLimited atomic.Int64
	rateLimited.Store(1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Health probes must pass so the member stays in rotation; the
		// batch call itself is rate-limited once.
		if r.URL.Path == "/v1/batch" && rateLimited.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "job store full", http.StatusTooManyRequests)
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL)
	remote.backoff = time.Millisecond
	pool, err := NewPool([]Backend{remote}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []core.BatchJob{{Spec: "costas n=10"}, {Spec: "costas n=11"}}
	res, err := pool.SolveBatch(context.Background(), jobs, core.BatchOptions{MasterSeed: 3})
	if err != nil {
		t.Fatalf("batch through a 429-answering worker errored: %v", err)
	}
	// With one member a pool-level requeue has nowhere to go and fails
	// the job, so every job solved shows the member-level retry inside
	// Remote.call absorbed the 429.
	for i, jr := range res.Jobs {
		if jr.Err != nil || !jr.Result.Solved {
			t.Fatalf("job %d failed through a merely-busy worker: %+v", i, jr)
		}
	}
}

// TestRemoteExpiredDeadlineFailsFast: a context that is already past its
// deadline must not reach the wire at all.
func TestRemoteExpiredDeadlineFailsFast(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "should never be reached", http.StatusInternalServerError)
	}))
	defer ts.Close()
	remote := NewRemote(ts.URL)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := remote.SolveSpec(ctx, "costas n=10", core.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveSpec error = %v, want context.DeadlineExceeded", err)
	}
	if _, err := remote.SolveBatch(ctx, []core.BatchJob{{Spec: "costas n=10"}}, core.BatchOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveBatch error = %v, want context.DeadlineExceeded", err)
	}
	if got := requests.Load(); got != 0 {
		t.Fatalf("expired-deadline calls reached the wire %d times, want 0", got)
	}

	// A cancelled (not timed-out) context reports its own cause.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := remote.SolveSpec(cctx, "costas n=10", core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-ctx error = %v, want context.Canceled", err)
	}
	if got := requests.Load(); got != 0 {
		t.Fatalf("cancelled-ctx calls reached the wire %d times, want 0", got)
	}
}
