package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/csp"
)

// Pool routes work across N backends — the coordinator of a solverd
// fleet. It health-checks members before every call, routes single
// solves to the least-loaded node, shards batches with work-stealing of
// the tail, and runs distributed first-success multi-walk: one logical
// multi-walk run split across nodes, first solution cancels the rest —
// the paper's independent multi-walk speedup model (§V-A) with machines
// in place of goroutines.
//
// Determinism rules (proven by the parity tests):
//
//   - Batches: per-job seeds are derived from BatchOptions.MasterSeed by
//     JOB INDEX (the chaotic seeder of §III-B3, exactly as
//     core.SolveBatch derives them) BEFORE any placement decision. A
//     virtual-mode batch is therefore bit-identical over 1 node or N —
//     sharding and work-stealing cannot show in the results.
//   - Distributed multi-walk: each shard's master seed is derived from
//     Options.Seed by SHARD INDEX, so the walker population is
//     reproducible for a fixed seed and node count, while which shard
//     wins is a race (as in the paper's real clusters). Virtual-mode
//     multi-walk solves are deliberately NOT sharded — they route whole
//     to one node — because virtual lockstep promises bit-determinism,
//     which a cross-node race would break.
//
// Failure semantics: a member that fails a health probe is skipped for
// the call; a member that fails mid-batch has its in-flight jobs
// requeued for the survivors (each job is attempted on up to
// max(2, members) members before its error is surfaced per job, and a
// result is recorded exactly once per job — no loss, no duplication).
type Pool struct {
	backends  []Backend
	cfg       PoolConfig
	healthTTL time.Duration  // how long a probe verdict is trusted; tests shorten it
	inflight  []atomic.Int64 // per-member in-flight calls, for least-loaded routing
	breakers  []*breaker     // per-member circuit breakers

	healthMu  sync.Mutex // guards the probe cache below
	probedAt  []time.Time
	probeErrs []error
}

const (
	// healthTimeout bounds each member's health probe.
	healthTimeout = 2 * time.Second
	// healthTTL is how long a probe result (up or down) is trusted
	// before re-probing. The cache keeps one hung member from adding its
	// probe timeout to every call, and keeps a member that died mid-call
	// out of the rotation until it answers a fresh probe.
	healthTTL = time.Second
	// breakerThreshold is how many consecutive transient call failures
	// trip a member's circuit breaker (the member then takes no work
	// until breakerCooldown passes and a half-open probe call succeeds).
	// The breaker complements the health cache: probes catch a dead
	// member, the breaker catches one that answers probes but fails real
	// work.
	breakerThreshold = 3
	// breakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open probe; it doubles on each consecutive
	// re-trip, capped at 16× this base.
	breakerCooldown = 2 * time.Second
)

// PoolConfig tunes a Pool. The zero value is production-safe.
type PoolConfig struct {
	// ChunkSize caps how many batch jobs are handed to a member per
	// dispatch; 0 sizes chunks by the member's Capacity. Smaller chunks
	// steal the tail more aggressively at the cost of more round trips.
	ChunkSize int
	// HedgeAfter, when > 0, hedges single solves against slow members:
	// if the routed member has not answered within this duration, the
	// same solve is dispatched to the next least-loaded member and the
	// first verdict wins (the straggler is cancelled). Only whole-route
	// solves hedge — distributed multi-walk already races shards, and
	// batches already work-steal. Explicit-seed solves are idempotent
	// across the duplicate dispatch by construction.
	HedgeAfter time.Duration
}

// NewPool returns a Pool over the given members. At least one backend is
// required.
func NewPool(backends []Backend, cfg PoolConfig) (*Pool, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("backend: pool needs at least one backend")
	}
	p := &Pool{
		backends:  backends,
		cfg:       cfg,
		healthTTL: healthTTL,
		inflight:  make([]atomic.Int64, len(backends)),
		breakers:  make([]*breaker, len(backends)),
		probedAt:  make([]time.Time, len(backends)),
		probeErrs: make([]error, len(backends)),
	}
	for i := range p.breakers {
		p.breakers[i] = &breaker{threshold: breakerThreshold, cooldown: breakerCooldown}
	}
	return p, nil
}

func (p *Pool) Name() string { return fmt.Sprintf("pool(%d)", len(p.backends)) }

// Capacity sums the members' capacity hints.
func (p *Pool) Capacity() int {
	total := 0
	for _, b := range p.backends {
		total += b.Capacity()
	}
	if total < 1 {
		total = 1
	}
	return total
}

// Healthy reports nil when at least one member is healthy.
func (p *Pool) Healthy(ctx context.Context) error {
	_, err := p.healthyMembers(ctx)
	return err
}

// healthyMembers returns the indices of the members currently believed
// healthy, preserving member order. Members whose cached probe is older
// than healthTTL are re-probed concurrently (bounded by healthTimeout);
// fresh verdicts — including "down", recorded by markDown when a member
// fails mid-call — are trusted without blocking, so one hung member
// costs at most one probe timeout per TTL, not per call. All members
// down is an error carrying the first failure.
func (p *Pool) healthyMembers(ctx context.Context) ([]int, error) {
	now := time.Now()
	p.healthMu.Lock()
	var stale []int
	for i := range p.backends {
		if now.Sub(p.probedAt[i]) >= p.healthTTL {
			stale = append(stale, i)
		}
	}
	p.healthMu.Unlock()

	if len(stale) > 0 {
		probeCtx, cancel := context.WithTimeout(ctx, healthTimeout)
		errs := make([]error, len(stale))
		var wg sync.WaitGroup
		for k, i := range stale {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				errs[k] = p.backends[i].Healthy(probeCtx)
			}(k, i)
		}
		wg.Wait()
		cancel()
		probed := time.Now()
		p.healthMu.Lock()
		for k, i := range stale {
			p.probedAt[i] = probed
			p.probeErrs[i] = errs[k]
		}
		p.healthMu.Unlock()
	}

	p.healthMu.Lock()
	defer p.healthMu.Unlock()
	var up []int
	var firstErr error
	for i := range p.backends {
		if p.probeErrs[i] == nil {
			up = append(up, i)
		} else if firstErr == nil {
			firstErr = p.probeErrs[i]
		}
	}
	if len(up) == 0 {
		return nil, fmt.Errorf("backend: no healthy backend in %s: %w", p.Name(), firstErr)
	}
	return up, nil
}

// markDown records a member failure observed mid-call, so the member
// stays out of the rotation until a fresh probe (after healthTTL) says
// otherwise.
func (p *Pool) markDown(i int, err error) {
	p.healthMu.Lock()
	p.probedAt[i] = time.Now()
	p.probeErrs[i] = err
	p.healthMu.Unlock()
}

// leastLoaded picks the member (among candidates) with the lowest
// in-flight-to-capacity ratio.
func (p *Pool) leastLoaded(candidates []int) int {
	best, bestLoad := candidates[0], 0.0
	for k, i := range candidates {
		cap := p.backends[i].Capacity()
		if cap < 1 {
			cap = 1
		}
		load := float64(p.inflight[i].Load()) / float64(cap)
		if k == 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// transientErr reports whether a member failure could succeed on a
// different member: remote transport/overload errors, yes; validation
// and other deterministic errors, no (they would fail everywhere).
func transientErr(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Transient()
}

// SolveSpec solves one run spec on the fleet: health-gate, breaker-gate,
// then shard or route. Multi-walk real-mode runs over several healthy
// members are sharded into a distributed first-success race; everything
// else routes whole to the least-loaded member (virtual runs stay whole
// to keep their bit-determinism), with failover: a member that dies
// mid-solve is marked down and the solve — idempotent by construction
// (spec + explicit seeds) — retries on the next least-loaded member.
func (p *Pool) SolveSpec(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
	opts.Backend = nil
	up, err := p.healthyMembers(ctx)
	if err != nil {
		return core.Result{}, err
	}
	up, err = p.breakerCandidates(up)
	if err != nil {
		return core.Result{}, err
	}
	if opts.Walkers > 1 && !opts.Virtual && len(up) > 1 {
		return p.solveDistributed(ctx, spec, opts, up)
	}
	return p.solveFailover(ctx, spec, opts, up)
}

type memberOutcome struct {
	i   int
	res core.Result
	err error
}

// solveFailover routes a whole solve to the least-loaded member, with
// sequential failover on transient errors (the failing member is
// marked down and its breaker fed) and, when HedgeAfter is set, a
// hedged duplicate: if the routed member has not answered in time the
// solve also goes to the next least-loaded member and the first
// verdict wins. With hedging off, at most one member runs the solve at
// a time — bit-identical to plain sequential failover.
func (p *Pool) solveFailover(ctx context.Context, spec string, opts core.Options, up []int) (core.Result, error) {
	callCtx, cancel := context.WithCancel(ctx)
	defer cancel() // stops a straggling hedge once a verdict is in
	remaining := append([]int(nil), up...)
	outcomes := make(chan memberOutcome, len(up))
	launched := 0
	launch := func() bool {
		for len(remaining) > 0 {
			i := p.leastLoaded(remaining)
			for k, v := range remaining {
				if v == i {
					remaining = append(remaining[:k], remaining[k+1:]...)
					break
				}
			}
			if !p.breakerAcquire(i) {
				continue // lost a half-open probe race; try the next member
			}
			launched++
			go func(i int) {
				p.inflight[i].Add(1)
				res, err := p.backends[i].SolveSpec(callCtx, spec, opts)
				p.inflight[i].Add(-1)
				p.recordOutcome(i, err)
				outcomes <- memberOutcome{i: i, res: res, err: err}
			}(i)
			return true
		}
		return false
	}
	if !launch() {
		return core.Result{}, fmt.Errorf("backend: every member of %s has an open circuit breaker", p.Name())
	}
	var hedge <-chan time.Time
	if p.cfg.HedgeAfter > 0 && len(remaining) > 0 {
		hedge = time.After(p.cfg.HedgeAfter)
	}
	var last memberOutcome
	for {
		select {
		case oc := <-outcomes:
			launched--
			if oc.err == nil || !transientErr(oc.err) || ctx.Err() != nil {
				return oc.res, oc.err
			}
			p.markDown(oc.i, oc.err)
			last = oc
			if launched == 0 && !launch() {
				return last.res, last.err
			}
		case <-hedge:
			hedge = nil
			launch() // best-effort duplicate; first verdict still wins
		}
	}
}

// splitWalkers divides w walkers across the members proportionally to
// capacity, every share ≥ 1 (members beyond w get no shard).
func (p *Pool) splitWalkers(w int, up []int) ([]int, []int) {
	if w < len(up) {
		up = up[:w]
	}
	caps := make([]int, len(up))
	total := 0
	for k, i := range up {
		caps[k] = p.backends[i].Capacity()
		if caps[k] < 1 {
			caps[k] = 1
		}
		total += caps[k]
	}
	shares := make([]int, len(up))
	assigned := 0
	for k := range shares {
		shares[k] = w * caps[k] / total
		if shares[k] < 1 {
			shares[k] = 1
		}
		assigned += shares[k]
	}
	// Distribute the rounding remainder (or claw back an overshoot from
	// the largest shares) so Σ shares == w exactly.
	for k := 0; assigned < w; k = (k + 1) % len(shares) {
		shares[k]++
		assigned++
	}
	for k := 0; assigned > w; k = (k + 1) % len(shares) {
		if shares[k] > 1 {
			shares[k]--
			assigned--
		}
	}
	return shares, up
}

// solveDistributed runs one multi-walk solve as a first-success race of
// per-member shards: Options.Walkers split proportionally to capacity,
// shard master seeds derived from the run's master seed by shard index
// (§III-B3), losers cancelled the moment a shard solves. The combined
// Result renumbers the winning walker into the global walker index space
// (shards concatenated in member order) and sums the parallel work.
func (p *Pool) solveDistributed(ctx context.Context, spec string, opts core.Options, up []int) (core.Result, error) {
	start := time.Now()
	admitted := make([]int, 0, len(up))
	for _, i := range up {
		if p.breakers[i].acquire(start) {
			admitted = append(admitted, i)
		}
	}
	if len(admitted) == 0 {
		return core.Result{}, fmt.Errorf("backend: every member of %s has an open circuit breaker", p.Name())
	}
	shares, up := p.splitWalkers(opts.Walkers, admitted)
	shardSeeds := core.DeriveSeeds(opts.Seed, len(up))

	raceCtx, cancelLosers := context.WithCancel(ctx)
	defer cancelLosers()

	type shardOutcome struct {
		res core.Result
		err error
	}
	outcomes := make([]shardOutcome, len(up))
	var (
		mu     sync.Mutex
		winner = -1 // shard index of the FIRST reported solution
		wg     sync.WaitGroup
	)
	for k, i := range up {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			so := opts
			so.Walkers = shares[k]
			so.Seed = shardSeeds[k]
			p.inflight[i].Add(1)
			res, err := p.backends[i].SolveSpec(raceCtx, spec, so)
			p.inflight[i].Add(-1)
			p.recordOutcome(i, err)
			outcomes[k] = shardOutcome{res: res, err: err}
			if err == nil && res.Solved {
				mu.Lock()
				if winner < 0 {
					winner = k
					cancelLosers()
				}
				mu.Unlock()
			}
		}(k, i)
	}
	wg.Wait()

	// Combine: global walker indexing, summed work, concatenated stats
	// (errored shards contribute zero-valued stats of their width so the
	// global indexing stays stable).
	offsets := make([]int, len(up))
	for k := 1; k < len(up); k++ {
		offsets[k] = offsets[k-1] + shares[k-1]
	}
	combined := core.Result{Winner: -1, WallTime: time.Since(start)}
	errCount := 0
	var firstErr error
	for k, oc := range outcomes {
		if oc.err != nil {
			errCount++
			if firstErr == nil {
				firstErr = fmt.Errorf("backend: shard on %s failed: %w", p.backends[up[k]].Name(), oc.err)
			}
			if transientErr(oc.err) {
				p.markDown(up[k], oc.err)
			}
			combined.Stats = append(combined.Stats, make([]csp.Stats, shares[k])...)
			continue
		}
		combined.TotalIterations += oc.res.TotalIterations
		st := oc.res.Stats
		if len(st) != shares[k] {
			st = make([]csp.Stats, shares[k])
		}
		combined.Stats = append(combined.Stats, st...)
	}
	if errCount == len(up) {
		return core.Result{}, firstErr
	}
	if winner >= 0 {
		win := outcomes[winner].res
		combined.Solved = true
		combined.Array = win.Array
		combined.Winner = offsets[winner] + win.Winner
		combined.Iterations = win.Iterations
		return combined, nil
	}
	// Nobody solved: the run was cancelled from outside or every shard
	// exhausted its budget. Our own cancelLosers fires only after a win,
	// so any Cancelled flag here reflects the caller's ctx. An unsolved
	// run with dead shards is NOT a faithful W-walker run — surface the
	// shard failure alongside the partial result instead of letting it
	// pass as a normal budget exhaustion (a win makes loser failures
	// irrelevant; an unsolved run does not).
	for _, oc := range outcomes {
		if oc.err == nil && oc.res.Cancelled {
			combined.Cancelled = true
		}
	}
	if firstErr != nil {
		return combined, fmt.Errorf("backend: unsolved with %d of %d shards failed: %w", errCount, len(up), firstErr)
	}
	return combined, nil
}

// batchState is the shared work queue of one sharded batch: pending job
// indexes, per-job attempt counts, and exactly-once result slots.
// Dispatchers (one per healthy member) pull chunks, push back the chunks
// of a member that died, and wake each other through cond.
type batchState struct {
	mu          sync.Mutex
	cond        *sync.Cond
	pending     []int
	outstanding int // chunks currently being solved by some member
	attempts    []int
	results     []core.JobResult
	done        []bool
}

// take pops up to n pending job indexes, blocking while the queue is
// empty but other dispatchers still hold chunks that might be requeued.
// It returns nil when the batch is finished (or ctx fired).
func (st *batchState) take(ctx context.Context, n int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.pending) == 0 && st.outstanding > 0 && ctx.Err() == nil {
		st.cond.Wait()
	}
	if len(st.pending) == 0 || ctx.Err() != nil {
		return nil
	}
	if n > len(st.pending) {
		n = len(st.pending)
	}
	chunk := make([]int, n)
	copy(chunk, st.pending[:n])
	st.pending = st.pending[n:]
	st.outstanding++
	return chunk
}

// settle records a finished chunk: per-job results on success; on a
// member failure the chunk's jobs are requeued for the survivors unless
// they are out of attempts, in which case callErr becomes their per-job
// error.
func (st *batchState) settle(chunk []int, results []core.JobResult, callErr error, maxAttempts int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.outstanding--
	if callErr == nil {
		for k, idx := range chunk {
			jr := results[k]
			jr.Job = idx
			st.results[idx] = jr
			st.done[idx] = true
		}
	} else {
		for _, idx := range chunk {
			st.attempts[idx]++
			if st.attempts[idx] >= maxAttempts {
				st.results[idx] = core.JobResult{Job: idx, Err: callErr}
				st.done[idx] = true
			} else {
				st.pending = append(st.pending, idx)
			}
		}
	}
	st.cond.Broadcast()
}

// SolveBatch shards the batch across the healthy members. Seeds are
// pinned by job index up front (see the package doc's determinism
// rules); placement is a pull model — each member's dispatcher takes a
// capacity-sized chunk, solves it, and comes back for more, so faster or
// larger members naturally take more of the batch and whoever frees up
// first steals the tail. A member that fails mid-chunk is dropped for
// the rest of the call and its chunk is requeued.
func (p *Pool) SolveBatch(ctx context.Context, jobs []core.BatchJob, opts core.BatchOptions) (core.BatchResult, error) {
	if jobs == nil {
		return core.BatchResult{}, fmt.Errorf("backend: nil batch job slice")
	}
	opts.Backend = nil
	start := time.Now()

	up, err := p.healthyMembers(ctx)
	if err != nil {
		return core.BatchResult{}, err
	}
	up, err = p.breakerCandidates(up)
	if err != nil {
		return core.BatchResult{}, err
	}

	seeds := core.DeriveSeeds(opts.MasterSeed, len(jobs))
	shipped := make([]core.BatchJob, len(jobs))
	for i, job := range jobs {
		if job.Options.Seed == 0 {
			job.Options.Seed = seeds[i]
		}
		shipped[i] = job
	}

	st := &batchState{
		pending:  make([]int, len(jobs)),
		attempts: make([]int, len(jobs)),
		results:  make([]core.JobResult, len(jobs)),
		done:     make([]bool, len(jobs)),
	}
	st.cond = sync.NewCond(&st.mu)
	for i := range jobs {
		st.pending[i] = i
	}
	// A cancelled ctx must wake blocked dispatchers so the batch unwinds
	// promptly instead of waiting on a chunk that will never requeue.
	stopWake := context.AfterFunc(ctx, func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	defer stopWake()

	var wg sync.WaitGroup
	for _, i := range up {
		if !p.breakerAcquire(i) {
			continue // lost a half-open probe race; the survivors cover
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			be := p.backends[i]
			chunkSize := p.cfg.ChunkSize
			if chunkSize <= 0 {
				chunkSize = be.Capacity()
			}
			if chunkSize < 1 {
				chunkSize = 1
			}
			for {
				chunk := st.take(ctx, chunkSize)
				if chunk == nil {
					return
				}
				sub := make([]core.BatchJob, len(chunk))
				for k, idx := range chunk {
					sub[k] = shipped[idx]
				}
				p.inflight[i].Add(int64(len(chunk)))
				br, err := be.SolveBatch(ctx, sub, opts)
				p.inflight[i].Add(int64(-len(chunk)))
				if err == nil && len(br.Jobs) != len(chunk) {
					err = fmt.Errorf("backend: %s returned %d results for a %d-job chunk", be.Name(), len(br.Jobs), len(chunk))
				}
				p.recordOutcome(i, err)
				st.settle(chunk, br.Jobs, err, max(2, len(p.backends)))
				if err != nil {
					// This member is dropped for the rest of the batch
					// (and out of the rotation until a fresh probe);
					// the requeued jobs go to the survivors.
					if transientErr(err) {
						p.markDown(i, err)
					}
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// Jobs still unsettled: the caller's ctx fired, or every dispatcher
	// died with jobs left in the queue.
	for i := range st.results {
		if !st.done[i] {
			err := context.Cause(ctx)
			if err == nil {
				err = fmt.Errorf("backend: %s: all members failed before the job ran", p.Name())
			}
			st.results[i] = core.JobResult{Job: i, Err: err}
		}
	}

	res := core.BatchResult{Jobs: st.results}
	res.Stats = core.SummarizeBatch(res.Jobs, time.Since(start))
	return res, nil
}
