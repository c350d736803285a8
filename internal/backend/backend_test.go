package backend

// Unit coverage of the backend layer's contracts: Local is bit-identical
// to the in-process facade, Remote round-trips the wire faithfully
// (parity, deadline propagation, retry policy, error mapping), and the
// core facade's Options.Backend selector delegates without changing
// results.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/service"
)

// newWorker boots one in-process solverd node and returns a Remote
// backend dialled at it.
func newWorker(t testing.TB, cfg service.Config) (*Remote, *httptest.Server) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return NewRemote(ts.URL), ts
}

// sameSolve asserts the deterministic fields of two results match
// bit-for-bit (Stats and WallTime legitimately differ across backends).
func sameSolve(t *testing.T, label string, want, got core.Result) {
	t.Helper()
	if want.Solved != got.Solved || !reflect.DeepEqual(want.Array, got.Array) ||
		want.Winner != got.Winner || want.Iterations != got.Iterations ||
		want.TotalIterations != got.TotalIterations {
		t.Fatalf("%s diverged:\nwant solved=%v array=%v winner=%d iters=%d total=%d\ngot  solved=%v array=%v winner=%d iters=%d total=%d",
			label,
			want.Solved, want.Array, want.Winner, want.Iterations, want.TotalIterations,
			got.Solved, got.Array, got.Winner, got.Iterations, got.TotalIterations)
	}
}

// TestLocalParityWithCore: a Local backend is the in-process run layer —
// sequential and virtual solves are bit-identical to core.Solve.
func TestLocalParityWithCore(t *testing.T) {
	ctx := context.Background()
	local := NewLocal()
	for _, opts := range []core.Options{
		{Seed: 7},
		{Seed: 11, Method: "tabu"},
		{Walkers: 16, Virtual: true, Seed: 5},
	} {
		direct := opts
		direct.N = 12
		want, err := core.Solve(ctx, direct)
		if err != nil {
			t.Fatal(err)
		}
		got, err := local.SolveSpec(ctx, "costas n=12", opts)
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, "local vs core", want, got)
		if !want.Solved {
			t.Fatalf("test instance unexpectedly unsolved: %+v", want)
		}
	}
}

// TestRemoteParityWithLocal: the same deterministic solves through a
// real HTTP round trip return bit-identical arrays and iteration counts.
func TestRemoteParityWithLocal(t *testing.T) {
	remote, _ := newWorker(t, service.Config{})
	local := NewLocal()
	ctx := context.Background()
	for _, spec := range []string{
		"costas n=12 seed=7",
		"costas n=11 method=tabu seed=3",
		"costas n=13 walkers=16 virtual=1 seed=9",
		"nqueens n=16 seed=4",
	} {
		want, err := local.SolveSpec(ctx, spec, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.SolveSpec(ctx, spec, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, spec, want, got)
	}
}

// TestRemoteBatchParity: a shipped batch (explicit and derived seeds,
// spec and N-shaped jobs) matches the in-process batch job for job.
func TestRemoteBatchParity(t *testing.T) {
	remote, _ := newWorker(t, service.Config{})
	ctx := context.Background()
	jobs := []core.BatchJob{
		{Spec: "costas n=11"},
		{Options: core.Options{N: 10, Method: "tabu"}},
		{Spec: "nqueens n=16"},
		{Spec: "costas n=12 walkers=8 virtual=1"},
		{Options: core.Options{N: 10, Seed: 77}},
	}
	opts := core.BatchOptions{MasterSeed: 42}
	want, err := core.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("job count: got %d want %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if (want.Jobs[i].Err == nil) != (got.Jobs[i].Err == nil) {
			t.Fatalf("job %d error mismatch: want %v got %v", i, want.Jobs[i].Err, got.Jobs[i].Err)
		}
		sameSolve(t, jobs[i].Spec, want.Jobs[i].Result, got.Jobs[i].Result)
	}
	if got.Stats.Solved != want.Stats.Solved || got.Stats.Errors != want.Stats.Errors {
		t.Fatalf("stats mismatch: want %+v got %+v", want.Stats, got.Stats)
	}
}

// TestRemoteDeadlinePropagation: a context deadline travels as
// timeout_ms, so the server cancels its walkers and the client gets a
// well-formed partial result — not a torn connection.
func TestRemoteDeadlinePropagation(t *testing.T) {
	remote, _ := newWorker(t, service.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	// An order large enough that it cannot finish inside the deadline.
	res, err := remote.SolveSpec(ctx, "costas n=24 seed=1", core.Options{})
	if err != nil {
		t.Fatalf("expected a partial cancelled result, got error %v", err)
	}
	if res.Solved || !res.Cancelled {
		t.Fatalf("expected cancelled partial result, got %+v", res)
	}
}

// TestRemoteRetriesTransient: 503s are retried until the node recovers;
// 400s map to a permanent error carrying the server's message.
func TestRemoteRetriesTransient(t *testing.T) {
	inner := service.New(service.Config{})
	defer inner.Shutdown(context.Background())
	var failures atomic.Int64
	failures.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL)
	remote.retries, remote.backoff = 3, time.Millisecond
	res, err := remote.SolveSpec(context.Background(), "costas n=10 seed=2", core.Options{})
	if err != nil || !res.Solved {
		t.Fatalf("retried solve failed: res=%+v err=%v", res, err)
	}

	// A client error must NOT be retried and must surface the message.
	_, err = remote.SolveSpec(context.Background(), "costas n=10 method=bogus", core.Options{})
	var re *RemoteError
	if err == nil || !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Transient() {
		t.Fatalf("want permanent 400 RemoteError, got %v", err)
	}

	// A 500 is a bug on the node, not weather: one request, no retry.
	var hits atomic.Int64
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()
	down := NewRemote(broken.URL)
	down.backoff = time.Millisecond
	_, err = down.SolveSpec(context.Background(), "costas n=10 seed=2", core.Options{})
	if err == nil || !errors.As(err, &re) || re.Status != http.StatusInternalServerError || re.Transient() {
		t.Fatalf("want permanent 500 RemoteError, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("a 500 reached the node %d times, want 1 (no retry)", got)
	}
}

// TestRemoteRejectsUnshippableKnobs: process-local options fail loudly
// instead of silently solving a different configuration.
func TestRemoteRejectsUnshippableKnobs(t *testing.T) {
	remote, _ := newWorker(t, service.Config{})
	params := adaptive.DefaultParams()
	if _, err := remote.SolveSpec(context.Background(), "costas n=10", core.Options{Params: &params}); err == nil {
		t.Fatal("custom adaptive params must not ship to a remote backend")
	}
	if _, err := core.Solve(context.Background(), core.Options{N: 10, Model: costas.Options{Err: costas.ErrQuadratic}, Backend: NewLocal()}); err == nil {
		t.Fatal("non-default costas model options must not route through a backend")
	}
}

// TestHealthzTeachesCapacity: a health probe learns the node's worker
// count as the capacity hint Pool shards by.
func TestHealthzTeachesCapacity(t *testing.T) {
	remote, _ := newWorker(t, service.Config{Workers: 3})
	if got := remote.Capacity(); got != 1 {
		t.Fatalf("capacity before probe: got %d want 1", got)
	}
	if err := remote.Healthy(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := remote.Capacity(); got != 3 {
		t.Fatalf("capacity after probe: got %d want 3", got)
	}
}

// TestCoreDelegation: Options.Backend routes the facade's entry points
// through a backend without changing results; model closures refuse to
// route.
func TestCoreDelegation(t *testing.T) {
	ctx := context.Background()
	want, err := core.Solve(ctx, core.Options{N: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Solve(ctx, core.Options{N: 12, Seed: 7, Backend: NewLocal()})
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "core.Solve via backend", want, got)

	if _, err := core.SolveModel(ctx, nil, core.Options{}); err == nil {
		t.Fatal("nil model factory must error")
	}
	_, err = core.SolveSpec(ctx, "costas n=10", core.Options{Backend: NewLocal()})
	if err != nil {
		t.Fatalf("SolveSpec via backend: %v", err)
	}

	// Batch delegation.
	jobs := core.BatchCAP([]int{10, 11}, core.Options{})
	direct, err := core.SolveBatch(ctx, jobs, core.BatchOptions{MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := core.SolveBatch(ctx, jobs, core.BatchOptions{MasterSeed: 5, Backend: NewLocal()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Jobs {
		sameSolve(t, "batch via backend", direct.Jobs[i].Result, routed.Jobs[i].Result)
	}
}

// TestShipSpec: the job-to-spec canonicalization backends route on.
func TestShipSpec(t *testing.T) {
	if s, err := (core.BatchJob{Options: core.Options{N: 14}}).ShipSpec(); err != nil || s != "costas n=14" {
		t.Fatalf("got %q, %v", s, err)
	}
	if s, err := (core.BatchJob{Spec: "nqueens n=8"}).ShipSpec(); err != nil || s != "nqueens n=8" {
		t.Fatalf("got %q, %v", s, err)
	}
	if _, err := (core.BatchJob{}).ShipSpec(); err == nil {
		t.Fatal("instance-less job must not ship")
	}
}
