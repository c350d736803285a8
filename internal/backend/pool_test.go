package backend

// Pool behaviour: the acceptance properties of the distributed layer.
//
//   - Sharding invariance: a fixed-master-seed virtual/sequential batch
//     through a Pool over 2+ workers is bit-identical, job for job, to
//     the same batch on a single Local backend (and to core.SolveBatch).
//   - Fault tolerance: a worker killed mid-batch has its jobs re-routed
//     to the survivors without loss or duplication.
//   - Distributed first-success multi-walk: the first solving shard
//     cancels the losers well within the request deadline.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/service"
)

// mixedJobs is the parity workload: spec-shaped and N-shaped jobs,
// several models and methods, explicit and derived seeds — every one
// deterministic (sequential or virtual) so bit-identity is meaningful.
func mixedJobs() []core.BatchJob {
	return []core.BatchJob{
		{Spec: "costas n=11"},
		{Options: core.Options{N: 10, Method: "tabu"}},
		{Spec: "nqueens n=16"},
		{Spec: "costas n=12 walkers=8 virtual=1"},
		{Spec: "allinterval n=10"},
		{Options: core.Options{N: 10, Seed: 77}},
		{Spec: "magicsquare k=4"},
		{Options: core.Options{N: 11, Walkers: 16, Virtual: true}},
		{Spec: "costas n=10 method=hillclimb maxiter=2000000"},
		{Options: core.Options{N: 12}},
	}
}

func assertBatchParity(t *testing.T, want, got core.BatchResult) {
	t.Helper()
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("job count: got %d want %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if (want.Jobs[i].Err == nil) != (got.Jobs[i].Err == nil) {
			t.Fatalf("job %d error mismatch: want %v got %v", i, want.Jobs[i].Err, got.Jobs[i].Err)
		}
		sameSolve(t, fmt.Sprintf("job %d", i), want.Jobs[i].Result, got.Jobs[i].Result)
	}
	if got.Stats.Solved != want.Stats.Solved || got.Stats.Errors != want.Stats.Errors {
		t.Fatalf("aggregate mismatch: want %+v got %+v", want.Stats, got.Stats)
	}
}

// TestPoolBatchParitySingleVsMultiNode is the acceptance criterion: the
// same fixed-master-seed batch, solved (a) in-process, (b) on one Local
// backend, (c) sharded by a Pool over two Local backends, and (d)
// sharded by a Pool over two HTTP workers plus a Local — identical
// per-job results everywhere.
func TestPoolBatchParitySingleVsMultiNode(t *testing.T) {
	ctx := context.Background()
	jobs := mixedJobs()
	opts := core.BatchOptions{MasterSeed: 99}

	want, err := core.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range want.Jobs {
		if jr.Err != nil || !jr.Result.Solved {
			t.Fatalf("reference job %d not solved: %+v %v", i, jr.Result, jr.Err)
		}
	}

	single, err := NewLocal().SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, want, single)

	pool2, err := NewPool([]Backend{NewLocal(), NewLocal()}, PoolConfig{ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := pool2.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, want, sharded)

	w1, _ := newWorker(t, service.Config{})
	w2, _ := newWorker(t, service.Config{})
	pool3, err := NewPool([]Backend{w1, w2, NewLocal()}, PoolConfig{ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := pool3.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, want, cluster)
}

// blockingWorker is an HTTP "solverd" that reports healthy, then blocks
// every batch call until the test kills it — the deterministic stand-in
// for a node dying mid-batch.
func blockingWorker(t *testing.T) (addr string, gotWork <-chan struct{}, kill func()) {
	t.Helper()
	work := make(chan struct{}, 16)
	unblock := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"ok":true,"workers":2}`)
		case "/v1/batch":
			select {
			case work <- struct{}{}:
			default:
			}
			<-unblock
			http.Error(w, "dying", http.StatusServiceUnavailable)
		default:
			http.NotFound(w, r)
		}
	}))
	var once sync.Once
	killFn := func() {
		once.Do(func() {
			close(unblock)
			ts.CloseClientConnections()
			ts.Close()
		})
	}
	t.Cleanup(killFn)
	return ts.URL, work, killFn
}

// TestPoolReroutesKilledWorkerMidBatch: one worker takes a chunk and is
// killed while holding it; the pool re-routes those jobs to the
// survivor. No job is lost (all results present and correct) and none is
// recorded twice — proven by the results being bit-identical to the
// single-node reference run.
func TestPoolReroutesKilledWorkerMidBatch(t *testing.T) {
	ctx := context.Background()
	jobs := mixedJobs()
	opts := core.BatchOptions{MasterSeed: 99}
	want, err := core.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}

	addr, gotWork, kill := blockingWorker(t)
	victim := NewRemote(addr)
	victim.retries, victim.backoff = 1, time.Millisecond
	pool, err := NewPool([]Backend{victim, NewLocal()}, PoolConfig{ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var got core.BatchResult
	var gotErr error
	go func() {
		got, gotErr = pool.SolveBatch(ctx, jobs, opts)
		close(done)
	}()

	select {
	case <-gotWork:
		// The victim holds an in-flight chunk — kill it now.
		kill()
	case <-time.After(10 * time.Second):
		t.Fatal("victim worker never received a chunk")
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pool batch did not finish after worker death")
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	assertBatchParity(t, want, got)
}

// fakeBackend scripts Backend behaviour for scheduling-focused tests.
type fakeBackend struct {
	name      string
	capacity  int
	healthErr error
	solve     func(ctx context.Context, spec string, opts core.Options) (core.Result, error)
	batch     func(ctx context.Context, jobs []core.BatchJob, opts core.BatchOptions) (core.BatchResult, error)
}

func (f *fakeBackend) Name() string { return f.name }
func (f *fakeBackend) Capacity() int {
	if f.capacity > 0 {
		return f.capacity
	}
	return 1
}
func (f *fakeBackend) Healthy(ctx context.Context) error { return f.healthErr }
func (f *fakeBackend) SolveSpec(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
	return f.solve(ctx, spec, opts)
}
func (f *fakeBackend) SolveBatch(ctx context.Context, jobs []core.BatchJob, opts core.BatchOptions) (core.BatchResult, error) {
	return f.batch(ctx, jobs, opts)
}

// TestPoolDistributedFirstSuccessCancelsLosers: when one shard solves,
// the other shards' contexts are cancelled immediately — the pool
// returns far inside the request deadline instead of waiting for the
// losers, and the combined result renumbers the winner into the global
// walker index space.
func TestPoolDistributedFirstSuccessCancelsLosers(t *testing.T) {
	winnerArr := []int{2, 0, 3, 1}
	var loserCancelled atomic.Bool
	fast := &fakeBackend{
		name: "fast", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			return core.Result{
				Solved: true, Array: winnerArr, Winner: 1,
				Iterations: 10, TotalIterations: 20,
				Stats: make([]csp.Stats, opts.Walkers),
			}, nil
		},
	}
	slow := &fakeBackend{
		name: "slow", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			<-ctx.Done() // a shard that would run forever
			loserCancelled.Store(true)
			return core.Result{Winner: -1, Cancelled: true, TotalIterations: 5,
				Stats: make([]csp.Stats, opts.Walkers)}, nil
		},
	}
	pool, err := NewPool([]Backend{fast, slow}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}

	deadline := 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := pool.SolveSpec(ctx, "costas n=20", core.Options{Walkers: 4, Seed: 3})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > deadline/4 {
		t.Fatalf("first-success took %v — losers were not cancelled promptly", elapsed)
	}
	if !loserCancelled.Load() {
		t.Fatal("losing shard never observed cancellation")
	}
	if !res.Solved || res.Winner != 1 { // fast shard is member 0: offset 0 + winner 1
		t.Fatalf("combined result wrong: %+v", res)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("combined stats must span all 4 walkers, got %d", len(res.Stats))
	}
	if res.TotalIterations != 25 { // winner 20 + cancelled loser 5
		t.Fatalf("parallel work not summed: got %d", res.TotalIterations)
	}
}

// TestPoolDistributedMultiWalkIntegration: a real multi-walk CAP solve
// sharded over two Local backends solves and verifies, with the global
// stats span equal to the requested walker count.
func TestPoolDistributedMultiWalkIntegration(t *testing.T) {
	pool, err := NewPool([]Backend{NewLocal(), NewLocal()}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.SolveSpec(context.Background(), "costas n=12", core.Options{Walkers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || !core.Verify(res.Array) {
		t.Fatalf("distributed multi-walk failed: %+v", res)
	}
	if len(res.Stats) != 4 || res.Winner < 0 || res.Winner >= 4 {
		t.Fatalf("walker accounting wrong: winner=%d stats=%d", res.Winner, len(res.Stats))
	}
}

// TestPoolVirtualSolveStaysWhole: virtual multi-walk promises
// bit-determinism, so the pool routes it unsharded — same result as a
// Local solve.
func TestPoolVirtualSolveStaysWhole(t *testing.T) {
	ctx := context.Background()
	opts := core.Options{Walkers: 32, Virtual: true, Seed: 11}
	want, err := NewLocal().SolveSpec(ctx, "costas n=12", opts)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool([]Backend{NewLocal(), NewLocal()}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.SolveSpec(ctx, "costas n=12", opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "virtual via pool", want, got)
}

// TestPoolSkipsUnhealthyMembers: a member failing its health probe is
// excluded; the batch completes on the survivors with full parity.
func TestPoolSkipsUnhealthyMembers(t *testing.T) {
	ctx := context.Background()
	jobs := mixedJobs()
	opts := core.BatchOptions{MasterSeed: 99}
	want, err := core.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	down := &fakeBackend{name: "down", healthErr: fmt.Errorf("unreachable")}
	pool, err := NewPool([]Backend{down, NewLocal()}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.SolveBatch(ctx, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, want, got)

	allDown, err := NewPool([]Backend{down}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allDown.SolveBatch(ctx, jobs, opts); err == nil {
		t.Fatal("a pool with no healthy member must refuse the batch")
	}
}

// TestPoolSingleSolveFailover: a member that passes its health probe but
// dies mid-solve is marked down and the solve retries on the next
// member; deterministic (non-transient) errors do not fail over.
func TestPoolSingleSolveFailover(t *testing.T) {
	dying := &fakeBackend{
		name: "dying", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			return core.Result{}, &RemoteError{Backend: "dying", Err: fmt.Errorf("connection reset")}
		},
	}
	pool, err := NewPool([]Backend{dying, NewLocal()}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.SolveSpec(context.Background(), "costas n=10 seed=3", core.Options{})
	if err != nil || !res.Solved {
		t.Fatalf("failover solve: res=%+v err=%v", res, err)
	}
	// The dying member is out of the rotation until its probe TTL lapses,
	// so a second solve routes straight to the survivor.
	if _, err := pool.SolveSpec(context.Background(), "costas n=10 seed=4", core.Options{}); err != nil {
		t.Fatalf("post-failover solve: %v", err)
	}

	badReq := &fakeBackend{
		name: "badreq", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			return core.Result{}, &RemoteError{Backend: "badreq", Status: 400, Err: fmt.Errorf("bad spec")}
		},
	}
	loudPool, err := NewPool([]Backend{badReq}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loudPool.SolveSpec(context.Background(), "costas n=10", core.Options{}); err == nil {
		t.Fatal("a deterministic 400 must surface, not retry forever")
	}
}

// TestPoolDistributedUnsolvedWithDeadShardErrors: an unsolved
// distributed run with a failed shard is not a faithful W-walker run —
// the shard failure must surface instead of masquerading as a normal
// budget exhaustion. (A win still makes loser failures irrelevant.)
func TestPoolDistributedUnsolvedWithDeadShardErrors(t *testing.T) {
	dead := &fakeBackend{
		name: "dead", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			return core.Result{}, &RemoteError{Backend: "dead", Err: fmt.Errorf("connection refused")}
		},
	}
	exhausted := &fakeBackend{
		name: "exhausted", capacity: 1,
		solve: func(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
			return core.Result{Winner: -1, TotalIterations: 100, Stats: make([]csp.Stats, opts.Walkers)}, nil
		},
	}
	pool, err := NewPool([]Backend{dead, exhausted}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.SolveSpec(context.Background(), "costas n=20", core.Options{Walkers: 4, Seed: 1})
	if err == nil {
		t.Fatalf("unsolved run with a dead shard must error, got %+v", res)
	}
	if res.Solved {
		t.Fatalf("result cannot claim solved: %+v", res)
	}
}

// TestBatchDelegationVerifiesClaimedSolutions: the facade's
// claimed-solution backstop holds for delegated batches too — a backend
// returning a wrong array marked solved is flipped to a per-job error.
func TestBatchDelegationVerifiesClaimedSolutions(t *testing.T) {
	lying := &fakeBackend{
		name: "lying", capacity: 1,
		batch: func(ctx context.Context, jobs []core.BatchJob, opts core.BatchOptions) (core.BatchResult, error) {
			out := core.BatchResult{Jobs: make([]core.JobResult, len(jobs))}
			for i := range jobs {
				out.Jobs[i] = core.JobResult{Job: i, Result: core.Result{
					Solved: true, Winner: 0, Array: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // not a Costas array
				}}
			}
			out.Stats = core.SummarizeBatch(out.Jobs, 0)
			return out, nil
		},
	}
	res, err := core.SolveBatch(context.Background(), []core.BatchJob{{Spec: "costas n=10"}},
		core.BatchOptions{Backend: lying})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Err == nil {
		t.Fatalf("lying backend's solution must be rejected: %+v", res.Jobs[0])
	}
	if res.Stats.Errors != 1 || res.Stats.Solved != 0 {
		t.Fatalf("stats not re-summarized after rejection: %+v", res.Stats)
	}
}

// TestDeriveSeedsIsTheOneDerivation: the cross-node parity guarantee is
// every layer deriving per-index seeds through core.DeriveSeeds — pin
// its zero-master normalization and determinism.
func TestDeriveSeedsIsTheOneDerivation(t *testing.T) {
	a := core.DeriveSeeds(0, 5)
	b := core.DeriveSeeds(1, 5)
	c := core.DeriveSeeds(1, 5)
	for i := range a {
		if a[i] != b[i] || b[i] != c[i] {
			t.Fatalf("seed derivation unstable at %d: %d %d %d", i, a[i], b[i], c[i])
		}
	}
	if core.DeriveSeeds(2, 3)[0] == b[0] {
		t.Fatal("distinct masters must decorrelate")
	}
}

// TestPoolBatchCancellation: cancelling the caller's ctx unwinds the
// sharded batch promptly, with undispatched jobs reporting the ctx
// error — core.SolveBatch's contract, preserved across the pool.
func TestPoolBatchCancellation(t *testing.T) {
	pool, err := NewPool([]Backend{NewLocal(), NewLocal()}, PoolConfig{ChunkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	jobs := core.BatchCAP([]int{22, 22, 22, 22, 22, 22, 22, 22}, core.Options{})
	res, err := pool.SolveBatch(ctx, jobs, core.BatchOptions{MasterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sawCtxErr := false
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			sawCtxErr = true
		}
	}
	if !sawCtxErr {
		t.Fatalf("a 150ms batch of order-22 solves should have cancelled jobs: %+v", res.Stats)
	}
}
