package core

// Batch / throughput layer: solve many instances — mixed orders, mixed
// methods, mixed execution modes — concurrently over a bounded worker
// pool, with per-job results and aggregate stats. This is the
// serving-shaped API on top of the unified multi-walk scheduler: a server
// handling a stream of solve requests wants one call that saturates the
// machine, not a hand-rolled loop of core.Solve calls.
//
// Determinism: every job gets an explicit seed — its own Options.Seed if
// non-zero, otherwise one derived from BatchOptions.MasterSeed and the
// job index via the chaotic seeder (§III-B3). Job outcomes are therefore
// independent of worker scheduling: a virtual-mode batch is bit-identical
// across runs and concurrency levels for a fixed master seed.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/registry"
	"repro/internal/rng"
)

// BatchJob describes one solve in a batch: the instance plus the solver
// options to run it with.
type BatchJob struct {
	// Options selects the instance (N), the method and the execution mode,
	// exactly as for Solve. Options.Seed == 0 means "derive this job's
	// seed from the batch master seed" (not "seed 1" as in Solve): batches
	// must decorrelate their jobs by default.
	Options Options

	// NewModel optionally overrides the CAP model with any csp.Model
	// factory, as in SolveModel; nil solves the CAP of order Options.N.
	NewModel func() csp.Model

	// Spec optionally names the instance through the model registry as a
	// run spec ("nqueens n=64 method=tabu", see ParseRunSpec): solver
	// option keys in the spec override Options, the rest resolves the
	// model. Mutually exclusive with NewModel; Options.N is ignored.
	Spec string
}

// BatchOptions configures the batch run.
type BatchOptions struct {
	// Concurrency bounds how many jobs are solved at once; 0 means
	// GOMAXPROCS. Each in-flight job may itself run Options.Walkers
	// goroutines, so CPU-bound callers typically set Concurrency high for
	// sequential jobs and low for wide multi-walk jobs.
	Concurrency int

	// MasterSeed seeds the chaotic sequencer that derives per-job seeds
	// for jobs whose Options.Seed is 0. Two batches with the same master
	// seed and job list produce identical per-job results in sequential
	// and virtual modes (real-goroutine jobs are statistically
	// equivalent). 0 means master seed 1.
	MasterSeed uint64

	// Backend routes the whole batch through an execution backend instead
	// of the in-process worker pool; nil means in-process. A backend.Pool
	// here shards the jobs across solverd nodes with per-job seeds still
	// derived by JOB INDEX from MasterSeed, so a virtual-mode batch stays
	// bit-identical to the in-process run whatever the node count. Jobs
	// with NewModel closures cannot be shipped and fail per job.
	Backend Backend
}

// JobResult is one job's outcome within a batch.
type JobResult struct {
	// Job indexes into the jobs slice passed to SolveBatch.
	Job int
	// Result is the solve outcome (zero-valued when Err is non-nil).
	Result Result
	// Err reports invalid job options, an internal verification failure,
	// or ctx cancellation — before the job was dispatched (zero Result) or
	// while it ran (the partial Result stays attached). An unsolved job
	// within its budget is NOT an error — check Result.Solved.
	Err error
}

// BatchStats aggregates a batch run.
type BatchStats struct {
	Jobs            int           // jobs submitted
	Solved          int           // jobs that found a solution
	Errors          int           // jobs that returned an error
	TotalIterations int64         // Σ per-job TotalIterations
	WallTime        time.Duration // batch wall time
	SolvesPerSec    float64       // Solved / WallTime
}

// BatchResult is the full outcome of SolveBatch: one JobResult per input
// job (in input order) plus the aggregate stats.
type BatchResult struct {
	Jobs  []JobResult
	Stats BatchStats
}

// SolveBatch solves every job concurrently over a worker pool of
// opts.Concurrency and returns per-job results in input order. Job
// failures (invalid options) are reported per job, never by the returned
// error, so one bad job cannot sink a batch; the error is reserved for a
// nil jobs slice. Cancelling ctx stops the batch promptly: running jobs
// stop at their next probe quantum and undispatched jobs fail with
// ctx.Err() — the partial BatchResult is still returned in full.
func SolveBatch(ctx context.Context, jobs []BatchJob, opts BatchOptions) (BatchResult, error) {
	if jobs == nil {
		return BatchResult{}, fmt.Errorf("core: nil batch job slice")
	}
	if b := opts.Backend; b != nil {
		opts.Backend = nil
		res, err := b.SolveBatch(ctx, jobs, opts)
		if err != nil {
			return res, err
		}
		verifyDelegatedBatch(&res, jobs)
		return res, nil
	}
	start := time.Now()

	concurrency := opts.Concurrency
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > len(jobs) {
		concurrency = len(jobs)
	}

	seeds := DeriveSeeds(opts.MasterSeed, len(jobs))

	res := BatchResult{Jobs: make([]JobResult, len(jobs))}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				res.Jobs[idx] = runBatchJob(ctx, jobs[idx], idx, seeds[idx])
			}
		}()
	}
	for idx := range jobs {
		if ctx.Err() != nil {
			// Mark every undispatched job cancelled; workers drain nothing
			// more once the channel closes.
			for rest := idx; rest < len(jobs); rest++ {
				res.Jobs[rest] = JobResult{Job: rest, Err: ctx.Err()}
			}
			break
		}
		next <- idx
	}
	close(next)
	wg.Wait()

	res.Stats = SummarizeBatch(res.Jobs, time.Since(start))
	return res, nil
}

// verifyDelegatedBatch applies the claimed-solution backstop to a batch
// executed by a backend: every single-solve delegation path verifies the
// returned array with the instance's own validator, and a batch must not
// be weaker — a drifted worker binary returning a wrong array marked
// solved is flipped to a per-job internal error here. Stats are
// re-summarized when anything flips.
func verifyDelegatedBatch(res *BatchResult, jobs []BatchJob) {
	changed := false
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		if i >= len(jobs) || jr.Err != nil || !jr.Result.Solved {
			continue
		}
		spec, err := jobs[i].ShipSpec()
		if err != nil {
			continue // unshippable jobs already failed per job at the backend
		}
		inst, _, err := ParseRunSpec(spec, jobs[i].Options)
		if err != nil {
			continue // unresolvable specs likewise surfaced per job
		}
		if !inst.Valid(jr.Result.Array) {
			jr.Err = fmt.Errorf("core: backend returned a claimed solution %v that does not solve %s", jr.Result.Array, inst.Spec)
			changed = true
		}
	}
	if changed {
		res.Stats = SummarizeBatch(res.Jobs, res.Stats.WallTime)
	}
}

// DeriveSeeds is the canonical per-index seed derivation of the batch
// layer: a zero master normalizes to 1, then the chaotic seeder
// (§III-B3) emits one seed per index. SolveBatch and every execution
// backend (internal/backend's Pool and Remote pin seeds by job index
// before placement; Pool also derives shard master seeds with it) MUST
// derive through this one function — the single-node vs multi-node
// bit-parity guarantee is exactly these sequences being identical
// everywhere.
func DeriveSeeds(master uint64, n int) []uint64 {
	if master == 0 {
		master = 1
	}
	return rng.NewChaoticSeeder(master).Seeds(n)
}

// SummarizeBatch aggregates per-job results into BatchStats — exported so
// execution backends (internal/backend) that assemble a BatchResult from
// sharded or remote job results summarize it exactly like SolveBatch.
func SummarizeBatch(jobs []JobResult, wall time.Duration) BatchStats {
	st := BatchStats{Jobs: len(jobs), WallTime: wall}
	for _, jr := range jobs {
		switch {
		case jr.Err != nil:
			st.Errors++
		case jr.Result.Solved:
			st.Solved++
		}
		st.TotalIterations += jr.Result.TotalIterations
	}
	if secs := wall.Seconds(); secs > 0 {
		st.SolvesPerSec = float64(st.Solved) / secs
	}
	return st
}

// ShipSpec canonicalizes a batch job into the registry run spec an
// execution backend routes on: an explicit Spec passes through, a plain
// CAP job (Options.N) becomes "costas n=N". Jobs that cannot leave the
// process — NewModel closures, non-default costas model options (which a
// spec cannot carry) — return an error; backends surface it per job.
func (j BatchJob) ShipSpec() (string, error) {
	switch {
	case j.NewModel != nil:
		return "", fmt.Errorf("core: batch job with a NewModel closure cannot route through a backend")
	case j.Spec != "":
		return j.Spec, nil
	case j.Options.N >= 1:
		if j.Options.Model != (costas.Options{}) {
			return "", fmt.Errorf("core: non-default costas model options cannot route through a backend")
		}
		return fmt.Sprintf("costas n=%d", j.Options.N), nil
	default:
		return "", fmt.Errorf("core: batch job selects no instance (no Spec, no N)")
	}
}

// resolveBatchJob resolves a spec-named job into its registry instance
// and its options (the spec's solver-option keys applied over
// job.Options). A job without a Spec resolves to a nil instance and its
// own options.
func resolveBatchJob(job BatchJob) (*registry.Instance, Options, error) {
	if job.Spec == "" {
		return nil, job.Options, nil
	}
	if job.NewModel != nil {
		return nil, job.Options, fmt.Errorf("core: batch job sets both Spec and NewModel")
	}
	inst, opts, err := ParseRunSpec(job.Spec, job.Options)
	return &inst, opts, err
}

// runBatchJob executes one job: a spec job through SolveInstance, a
// NewModel job through SolveModel and a plain CAP job through Solve.
func runBatchJob(ctx context.Context, job BatchJob, idx int, derivedSeed uint64) JobResult {
	if err := ctx.Err(); err != nil {
		return JobResult{Job: idx, Err: err}
	}

	inst, opts, err := resolveBatchJob(job)
	if err != nil {
		return JobResult{Job: idx, Err: err}
	}
	if opts.Seed == 0 {
		opts.Seed = derivedSeed
	}

	var r Result
	switch {
	case inst != nil:
		r, err = SolveInstance(ctx, *inst, opts)
	case job.NewModel != nil:
		r, err = SolveModel(ctx, job.NewModel, opts)
	default:
		r, err = Solve(ctx, opts)
	}
	jr := JobResult{Job: idx, Result: r, Err: err}
	// A job the solver stopped mid-run because ctx fired is cancelled, not
	// "unsolved within budget" — surface that through Err (the partial
	// Result stays attached) so callers can tell the two apart. The
	// solver's own Cancelled flag is the signal: a job that exhausted its
	// budget just as ctx fired stays a legitimate unsolved result.
	if jr.Err == nil && jr.Result.Cancelled {
		jr.Err = context.Cause(ctx)
	}
	return jr
}

// BatchCAP is a convenience builder: one job per order in orders, all
// sharing the given method and per-job options template (Seed, Walkers,
// Virtual, ... are taken from tmpl; N is overwritten per job). Use it to
// express the common "solve these orders" batch in one line:
//
//	res, _ := core.SolveBatch(ctx, core.BatchCAP([]int{14, 15, 16}, core.Options{Method: "tabu"}),
//	    core.BatchOptions{MasterSeed: 7})
func BatchCAP(orders []int, tmpl Options) []BatchJob {
	jobs := make([]BatchJob, len(orders))
	for i, n := range orders {
		o := tmpl
		o.N = n
		jobs[i] = BatchJob{Options: o}
	}
	return jobs
}
