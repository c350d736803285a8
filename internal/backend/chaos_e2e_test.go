package backend

// Chaos e2e, run by CI under -race: a seeded fault schedule
// (internal/faultinject) over the 3-node cluster topology. Every
// member's HTTP transport injects latency, connection resets,
// synthesized 5xx, and truncated/corrupted JSON bodies into the work
// path, and the suite asserts the hardened layers hold their
// invariants:
//
//   - the mixed-spec sharded batch completes with every job solved and
//     bit-identical to a fault-free single node (no lost and no
//     silently-corrupted solutions — a damaged body must surface as a
//     retryable parse error, never as a wrong result);
//   - a fully serial chaos run replays bit-identically from its seed:
//     same per-site decision stream, same operation counts, same
//     responses;
//   - a different seed yields a different schedule (the knob works).
//
// Faults are injected on /v1/* calls, not /healthz probes: the layers
// under stress here (member-level retry, breaker outcome accounting,
// pool requeue, hedging) all live on the work path, and a clean probe
// channel keeps the invariant deterministic — "every probe of every
// member failed in the same round" is a legitimate loud pool failure,
// not a lost solution. Work-failing-but-probe-healthy members are
// covered by the breaker tests.
//
// The seed is logged on every run; set CHAOS_SEED to replay a failure.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/service"
)

// defaultChaosSeed pins CI runs; any seed must pass, this one always
// runs.
const defaultChaosSeed = 20260807

func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return v
	}
	return defaultChaosSeed
}

// chaosHTTPRates is the client-side fault mix for cluster chaos: ~1 in
// 3 calls is disturbed somehow.
func chaosHTTPRates() faultinject.SiteConfig {
	return faultinject.SiteConfig{
		Rates: map[faultinject.Kind]float64{
			faultinject.Latency:      0.10,
			faultinject.ConnReset:    0.05,
			faultinject.Status5xx:    0.10,
			faultinject.TruncateBody: 0.04,
			faultinject.CorruptBody:  0.03,
		},
		MinLatency: time.Millisecond,
		MaxLatency: 10 * time.Millisecond,
		// 500 is deliberately absent: Remote treats it as a permanent
		// member error (correctly — a real 500 is a bug, not weather),
		// so a synthesized one would assert loud failure, not recovery.
		Statuses: []int{502, 503, 504},
	}
}

// workPathChaos injects faults into /v1/* requests only, passing
// health probes through clean.
type workPathChaos struct {
	chaos *faultinject.Transport
}

func (w *workPathChaos) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/healthz" {
		return http.DefaultTransport.RoundTrip(req)
	}
	return w.chaos.RoundTrip(req)
}

// bootNode starts one in-process solverd service with shutdown wired
// into the test lifecycle.
func bootNode(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts
}

// chaosWorker boots a solverd node reached through a fault-injecting
// transport driven by the named site.
func chaosWorker(t *testing.T, plan *faultinject.Plan, site string) *Remote {
	t.Helper()
	ts := bootNode(t, service.Config{})
	r := NewRemote(ts.URL)
	r.client = &http.Client{
		Transport: &workPathChaos{chaos: &faultinject.Transport{Site: plan.Site(site, chaosHTTPRates())}},
	}
	r.retries, r.backoff = 5, 2*time.Millisecond
	return r
}

// TestChaosClusterBatchNoLostSolutions: the acceptance batch from the
// cluster e2e, rerun with every member behind an injected-fault
// transport. The retry/breaker/requeue stack must absorb the chaos:
// every job completes, and every deterministic result is bit-identical
// to the fault-free single-node ground truth.
func TestChaosClusterBatchNoLostSolutions(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed: %d (set CHAOS_SEED to replay)", seed)
	plan := faultinject.NewPlan(seed)

	worker1 := chaosWorker(t, plan, "member0.http")
	worker2 := chaosWorker(t, plan, "member1.http")
	pool, err := NewPool([]Backend{worker1, worker2}, PoolConfig{
		ChunkSize:  1,               // maximum chunk count = maximum faulted calls
		HedgeAfter: 2 * time.Second, // a stalled member duplicates, not blocks
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := bootNode(t, service.Config{Backend: pool, Workers: 64})
	singleTS := bootNode(t, service.Config{})

	const batchBody = `{
		"jobs": [
			{"model": "costas n=11"},
			{"model": "costas n=12", "options": {"walkers": 8, "virtual": true}},
			{"model": "nqueens n=16"},
			{"model": "costas n=10", "options": {"method": "tabu"}},
			{"model": "allinterval n=10"},
			{"model": "magicsquare k=4"},
			{"model": "costas n=11", "options": {"walkers": 16, "virtual": true}},
			{"model": "costas n=12", "options": {"seed": 55}}
		],
		"master_seed": 1234
	}`

	want := postBatch(t, singleTS.URL, batchBody)
	got := postBatch(t, coordTS.URL, batchBody)

	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("job count: got %d want %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		w, g := want.Jobs[i], got.Jobs[i]
		if g.Error != "" {
			t.Fatalf("job %d failed under chaos (retries exhausted): %s", i, g.Error)
		}
		if !g.Result.Solved {
			t.Fatalf("job %d lost its solution under chaos: %+v", i, g.Result)
		}
		if !reflect.DeepEqual(w.Result.Solution, g.Result.Solution) ||
			w.Result.Iterations != g.Result.Iterations ||
			w.Result.TotalIterations != g.Result.TotalIterations {
			t.Fatalf("job %d corrupted under chaos:\nwant %+v\ngot  %+v", i, *w.Result, *g.Result)
		}
	}
	if got.Stats.Solved != len(want.Jobs) {
		t.Fatalf("cluster solved %d of %d under chaos", got.Stats.Solved, len(want.Jobs))
	}
	// A round of deterministic single solves through the coordinator's
	// failover/hedging path; each must be bit-identical to the clean
	// single node — a chaos-damaged reply may cost a retry, never an
	// answer.
	for i := 0; i < 12; i++ {
		body := fmt.Sprintf(`{"model": "costas n=11", "options": {"seed": %d}}`, i+1)
		want := postSolve(t, singleTS.URL, body)
		got := postSolve(t, coordTS.URL, body)
		if !want.Solved || !got.Solved || !reflect.DeepEqual(want.Solution, got.Solution) ||
			want.Iterations != got.Iterations {
			t.Fatalf("solve seed %d diverged under chaos:\nwant %+v\ngot  %+v", i+1, want, got)
		}
	}

	t.Logf("chaos draws: member0=%d member1=%d, breakers=%v",
		plan.Site("member0.http", faultinject.SiteConfig{}).Count(),
		plan.Site("member1.http", faultinject.SiteConfig{}).Count(),
		pool.BreakerStates())
}

// postSolve submits one /v1/solve request and decodes the reply,
// failing the test on a non-200 answer.
func postSolve(t *testing.T, url, body string) service.SolveResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %+v", resp.StatusCode, out)
	}
	return out
}

// chaosReplayRun executes one fully serial chaos pass: a fresh worker
// node behind a fresh plan seeded with `seed`, a fixed sequence of
// deterministic solves, everything single-threaded so the operation
// order at the site is the arrival order. It returns the per-solve
// outcomes and the site's full decision stream.
func chaosReplayRun(t *testing.T, seed uint64) ([]core.Result, []faultinject.Decision) {
	t.Helper()
	plan := faultinject.NewPlan(seed)
	site := plan.Site("replay.http", chaosHTTPRates())
	ts := bootNode(t, service.Config{CacheSize: -1})
	remote := NewRemote(ts.URL)
	remote.client = &http.Client{Transport: &faultinject.Transport{Site: site}}
	remote.retries, remote.backoff = 6, time.Millisecond

	specs := []string{
		"costas n=10 seed=1",
		"costas n=11 seed=2",
		"nqueens n=12 seed=3",
		"allinterval n=8 seed=4",
		"costas n=10 seed=5",
	}
	results := make([]core.Result, len(specs))
	for i, spec := range specs {
		res, err := remote.SolveSpec(context.Background(), spec, core.Options{})
		if err != nil {
			t.Fatalf("seed %d, solve %d (%s): %v", seed, i, spec, err)
		}
		results[i] = core.Result{
			Solved: res.Solved, Array: res.Array, Winner: res.Winner,
			Iterations: res.Iterations, TotalIterations: res.TotalIterations,
		}
	}
	stream := make([]faultinject.Decision, site.Count())
	for k := range stream {
		stream[k] = site.At(uint64(k))
	}
	return results, stream
}

// TestChaosReplayBitIdentical: the fault-injection acceptance criterion
// — one seed, two independent runs, identical everything: the decision
// stream (kinds AND parameters), the number of operations the run
// needed (retry behavior is part of the replay), and every solve
// result. A different seed must produce a different schedule.
func TestChaosReplayBitIdentical(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed: %d (set CHAOS_SEED to replay)", seed)

	res1, stream1 := chaosReplayRun(t, seed)
	res2, stream2 := chaosReplayRun(t, seed)

	if len(stream1) == 0 {
		t.Fatal("no operations drew decisions — the chaos transport is not wired")
	}
	if !reflect.DeepEqual(stream1, stream2) {
		t.Fatalf("decision streams diverged between identical-seed runs:\nrun1: %v\nrun2: %v", stream1, stream2)
	}
	for i := range res1 {
		sameSolve(t, fmt.Sprintf("replay solve %d", i), res1[i], res2[i])
	}

	// And the schedule genuinely depends on the seed: enumerate both
	// schedules purely (no run needed) and require a difference.
	a := faultinject.NewPlan(seed).Site("replay.http", chaosHTTPRates())
	b := faultinject.NewPlan(seed+1).Site("replay.http", chaosHTTPRates())
	different := false
	for k := uint64(0); k < uint64(len(stream1)); k++ {
		if !reflect.DeepEqual(a.At(k), b.At(k)) {
			different = true
			break
		}
	}
	if !different {
		t.Fatalf("seeds %d and %d produced identical %d-op schedules", seed, seed+1, len(stream1))
	}
}
