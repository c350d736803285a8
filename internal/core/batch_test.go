package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/models/nqueens"
)

// mixedBatch builds the acceptance batch: mixed orders × all four
// methods, virtual multi-walk, so results are deterministic per job.
// Adaptive Search covers the full 10–16 range; the slower baseline
// methods stop earlier so the suite stays fast under -race.
func mixedBatch(walkers int) []BatchJob {
	var jobs []BatchJob
	for _, mix := range []struct {
		method string
		maxN   int
	}{
		{"adaptive", 16},
		{"tabu", 14},
		{"hillclimb", 14},
		{"dialectic", 13},
	} {
		for n := 10; n <= mix.maxN; n++ {
			jobs = append(jobs, BatchJob{Options: Options{
				N: n, Method: mix.method, Walkers: walkers, Virtual: true,
			}})
		}
	}
	return jobs
}

func TestSolveBatchMixedMethodsAndOrders(t *testing.T) {
	jobs := mixedBatch(4)
	res, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("got %d job results for %d jobs", len(res.Jobs), len(jobs))
	}
	for i, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %d failed: %v", i, jr.Err)
		}
		if jr.Job != i {
			t.Fatalf("job result %d reports index %d", i, jr.Job)
		}
		if !jr.Result.Solved || !Verify(jr.Result.Array) {
			t.Fatalf("job %d (n=%d %s) not solved to a Costas array: %+v",
				i, jobs[i].Options.N, jobs[i].Options.Method, jr.Result)
		}
	}
	if res.Stats.Solved != len(jobs) || res.Stats.Errors != 0 || res.Stats.Jobs != len(jobs) {
		t.Fatalf("aggregate stats wrong: %+v", res.Stats)
	}
	if res.Stats.TotalIterations <= 0 || res.Stats.SolvesPerSec <= 0 {
		t.Fatalf("aggregate work not recorded: %+v", res.Stats)
	}
}

func TestSolveBatchDeterministicInVirtualMode(t *testing.T) {
	// Same master seed, different concurrency: per-job outcomes must be
	// bit-identical — job seeds come from the master seed and the job
	// index, never from scheduling.
	jobs := mixedBatch(4)
	r1, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 11, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 11, Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	requireSameJobResults(t, r1, r2)
}

// TestSolveBatchSequentialSameShapeDeterministic: a batch of identical
// sequential jobs on one worker — one engine shape solved over and over —
// must reproduce job for job when run again.
func TestSolveBatchSequentialSameShapeDeterministic(t *testing.T) {
	jobs := BatchCAP([]int{12, 12, 12, 12, 12, 12}, Options{})
	run := func() BatchResult {
		res, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 7, Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, jr := range res.Jobs {
			if jr.Err != nil || !jr.Result.Solved || !Verify(jr.Result.Array) {
				t.Fatalf("job %d failed: %v %+v", i, jr.Err, jr.Result)
			}
		}
		return res
	}
	requireSameJobResults(t, run(), run())
}

// requireSameJobResults fails unless two batches returned equal
// JobResults, job for job; wall times are the only fields allowed to
// differ.
func requireSameJobResults(t *testing.T, a, b BatchResult) {
	t.Helper()
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("%d job results vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		x, y := a.Jobs[i], b.Jobs[i]
		x.Result.WallTime, y.Result.WallTime = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("job %d not reproducible:\n got %+v\nwant %+v", i, y, x)
		}
	}
}

func TestSolveBatchPerJobSeedsDecorrelate(t *testing.T) {
	// Two identical jobs with Seed == 0 must get different derived seeds —
	// a batch of equal instances should not run the same walk twice.
	jobs := BatchCAP([]int{13, 13}, Options{Walkers: 4, Virtual: true})
	res, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Jobs[0].Result, res.Jobs[1].Result
	if !a.Solved || !b.Solved {
		t.Fatal("batch jobs unsolved")
	}
	if a.Iterations == b.Iterations && a.Winner == b.Winner {
		t.Fatalf("identical jobs ran identical walks: %+v vs %+v", a, b)
	}
}

func TestSolveBatchExplicitSeedWins(t *testing.T) {
	// A job carrying its own seed must reproduce a direct Solve with it.
	direct, err := Solve(context.Background(), Options{N: 12, Walkers: 4, Virtual: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveBatch(context.Background(),
		[]BatchJob{{Options: Options{N: 12, Walkers: 4, Virtual: true, Seed: 9}}},
		BatchOptions{MasterSeed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Jobs[0].Result
	if got.Iterations != direct.Iterations || got.Winner != direct.Winner {
		t.Fatalf("explicit-seed batch job diverges from Solve: (%d,%d) vs (%d,%d)",
			got.Winner, got.Iterations, direct.Winner, direct.Iterations)
	}
}

func TestSolveBatchCustomModels(t *testing.T) {
	// Batches mix CAP jobs with arbitrary csp.Model jobs.
	jobs := []BatchJob{
		{Options: Options{N: 12}},
		{NewModel: func() csp.Model { return nqueens.New(16) }, Options: Options{Method: "tabu"}},
	}
	res, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[0].Result.Solved || !Verify(res.Jobs[0].Result.Array) {
		t.Fatalf("CAP job failed: %+v", res.Jobs[0])
	}
	if !res.Jobs[1].Result.Solved || !nqueens.Valid(res.Jobs[1].Result.Array) {
		t.Fatalf("nqueens job failed: %+v", res.Jobs[1])
	}
}

func TestSolveBatchBadJobDoesNotSinkBatch(t *testing.T) {
	jobs := []BatchJob{
		{Options: Options{N: 0}}, // invalid order
		{Options: Options{N: 11}},
		{Options: Options{N: 11, Method: "no-such-method"}},
	}
	res, err := SolveBatch(context.Background(), jobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Err == nil || res.Jobs[2].Err == nil {
		t.Fatalf("invalid jobs did not error: %+v", res.Jobs)
	}
	if res.Jobs[1].Err != nil || !res.Jobs[1].Result.Solved {
		t.Fatalf("valid job sunk by invalid neighbours: %+v", res.Jobs[1])
	}
	if res.Stats.Errors != 2 || res.Stats.Solved != 1 {
		t.Fatalf("aggregate stats wrong: %+v", res.Stats)
	}
	if _, err := SolveBatch(context.Background(), nil, BatchOptions{}); err == nil {
		t.Fatal("nil job slice accepted")
	}
}

func TestSolveBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: no job may run to completion
	jobs := BatchCAP([]int{20, 20, 20, 20}, Options{})
	res, err := SolveBatch(ctx, jobs, BatchOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res.Jobs {
		if jr.Result.Solved {
			t.Skipf("job %d improbably lucky", i)
		}
		if jr.Err == nil {
			t.Fatalf("cancelled job %d reports no error: %+v", i, jr)
		}
		if jr.Result.TotalIterations > 10*64 {
			t.Fatalf("job %d ignored cancellation: %+v", i, jr.Result)
		}
	}
}

func TestSolveVirtualHonoursContext(t *testing.T) {
	// Regression for the facade: core.Solve used to ignore ctx entirely
	// when Options.Virtual was set.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(ctx, Options{N: 22, Walkers: 8, Virtual: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("virtual solve ignored ctx deadline: ran %v", elapsed)
	}
	if len(res.Stats) != 8 {
		t.Fatal("partial result lost walker stats")
	}
}
