package walk

// This file implements the *dependent* multiple-walk scheme the paper's
// conclusion (§VI) sketches as future work: walkers that communicate,
// with the two stated design goals —
//
//	(1) "minimizing data transfers as much as possible", and
//	(2) "re-using some common computations and/or recording previous
//	     interesting crossroads in the resolution, from which a restart
//	     can be operated".
//
// The design here follows those goals literally. Walkers share a small
// fixed-size *crossroads pool* of promising configurations (low-cost
// points encountered at local minima). Communication is tiny and rare:
// a walker offers its configuration to the pool only when its cost beats
// the pool's worst entry (goal 1), and a walker performing a restart
// draws a crossroad from the pool with probability RestartFromPool
// instead of a fresh random permutation (goal 2). Everything else is the
// plain multi-walk scheduler of scheduler.go — the crossroads pool is a
// communication policy plugged into its boundary hook, so the independent
// scheme is the RestartFromPool = 0 special case, and both execution
// modes come for free: Cooperative runs the deterministic lockstep
// simulator (multi-threaded across MaxParallelism workers), and
// CooperativeParallel runs real goroutines.
//
// Like the independent runner, the scheme is engine-generic: any method
// whose engines implement csp.Restartable (all four in this repository
// do) can participate, and portfolio mode mixes methods across walkers.
//
// The cooperative scheme is *not* part of the paper's evaluation — it is
// its future work — so the benchmarks report it as an extension
// (cmd/paperbench is unaffected; see the cooperative benches in
// bench_test.go and the walk tests for behaviour).

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/csp"
	"repro/internal/rng"
)

// CoopConfig extends Config with the communication policy.
//
// The scheduler owns the restart policy: engines should be created with
// their internal restarts disabled (e.g. adaptive.Params.RestartLimit =
// −1), because the scheduler performs restarts itself every RestartEvery
// iterations through the csp.Restartable hook, seeding them from the pool.
type CoopConfig struct {
	Config

	// PoolSize is the number of crossroads retained (default 8).
	PoolSize int

	// RestartFromPool is the probability that a walker's restart resumes
	// from a pooled crossroad instead of a fresh random configuration.
	// nil means the default 0.5; an explicit 0 (&zero) reduces the scheme
	// to independent multi-walk with scheduler-side restarts — the pool
	// still records crossroads but never seeds from them.
	RestartFromPool *float64

	// OfferThreshold: a walker offers its configuration to the pool when
	// its cost is below bestKnown × OfferThreshold (default 1.25) — the
	// "interesting crossroads" filter.
	OfferThreshold float64

	// RestartEvery is the scheduler's restart period per walker, in
	// iterations (default 2n², mirroring the tuned engine restart limit).
	RestartEvery int64
}

func (c CoopConfig) withDefaults(n int) CoopConfig {
	c.Config = c.Config.withDefaults()
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.RestartFromPool == nil {
		p := 0.5
		c.RestartFromPool = &p
	}
	if c.OfferThreshold == 0 {
		c.OfferThreshold = 1.25
	}
	if c.RestartEvery <= 0 {
		c.RestartEvery = 2 * int64(n) * int64(n)
	}
	return c
}

// crossroadPool is the shared bounded store of promising configurations.
// All methods are safe for concurrent use; entries are kept sorted by
// cost so the worst is evicted first.
type crossroadPool struct {
	mu      sync.Mutex
	max     int
	entries []crossroad
}

type crossroad struct {
	cfg  []int
	cost int
}

func newCrossroadPool(max int) *crossroadPool {
	return &crossroadPool{max: max}
}

// offer inserts cfg if the pool has room or cfg beats the current worst;
// it reports whether the entry was kept.
func (p *crossroadPool) offer(cfg []int, cost int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.entries) >= p.max && cost >= p.entries[len(p.entries)-1].cost {
		return false
	}
	entry := crossroad{cfg: append([]int(nil), cfg...), cost: cost}
	p.entries = append(p.entries, entry)
	sort.Slice(p.entries, func(i, j int) bool { return p.entries[i].cost < p.entries[j].cost })
	if len(p.entries) > p.max {
		p.entries = p.entries[:p.max]
	}
	return true
}

// sample copies a uniformly chosen crossroad into dst and reports whether
// the pool was non-empty.
func (p *crossroadPool) sample(dst []int, r *rng.RNG) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.entries) == 0 {
		return false
	}
	copy(dst, p.entries[r.Intn(len(p.entries))].cfg)
	return true
}

// bestCost returns the lowest pooled cost (MaxInt when empty).
func (p *crossroadPool) bestCost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.entries) == 0 {
		return int(^uint(0) >> 1)
	}
	return p.entries[0].cost
}

// size returns the current number of pooled crossroads.
func (p *crossroadPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// CoopResult extends Result with communication counters.
type CoopResult struct {
	Result
	Offers      int64 // configurations actually offered to the pool
	Accepted    int64 // offers retained
	PoolRestart int64 // restarts seeded from the pool

	// EngineRestarts counts restarts the engines performed on their own,
	// outside the scheduler (Σ engine Restarts − scheduler-issued). A
	// non-zero value means a factory left an internal restart policy
	// enabled, competing with the scheduler's pool seeding — the knob
	// callers should watch when wiring a new factory.
	EngineRestarts int64
}

// coopPolicy is the crossroads-pool communication policy plugged into the
// scheduler's boundary hook. The pool is mutex-protected and the counters
// are atomic, so the same policy value serves both execution modes; the
// per-walker state (RNG, restart clock) is only ever touched by the one
// goroutine driving that walker.
type coopPolicy struct {
	quantum         int
	poolSize        int
	offerThreshold  float64
	restartEvery    int64
	restartFromPool float64

	pool     *crossroadPool
	rngs     []*rng.RNG
	sinceRst []int64

	offers        atomic.Int64
	accepted      atomic.Int64
	poolRestarts  atomic.Int64
	schedRestarts atomic.Int64
}

func newCoopPolicy(cfg CoopConfig, seeds []uint64) *coopPolicy {
	p := &coopPolicy{
		quantum:         cfg.CheckEvery,
		poolSize:        cfg.PoolSize,
		offerThreshold:  cfg.OfferThreshold,
		restartEvery:    cfg.RestartEvery,
		restartFromPool: *cfg.RestartFromPool,
		pool:            newCrossroadPool(cfg.PoolSize),
		rngs:            make([]*rng.RNG, len(seeds)),
		sinceRst:        make([]int64, len(seeds)),
	}
	for i, s := range seeds {
		p.rngs[i] = rng.New(s ^ 0xD1B54A32D192ED03)
	}
	return p
}

// boundary implements the policy hook: offer interesting crossroads
// (goal 2's "recording") and perform scheduler-driven restarts with pool
// seeding. Offers is counted only when a configuration passes the
// interestingness filter and is actually offered to the pool — quantum
// boundaries that offer nothing cost no communication at all (goal 1).
func (p *coopPolicy) boundary(i int, e csp.Engine) bool {
	p.sinceRst[i] += int64(p.quantum)

	cost := e.Cost()
	if float64(cost) <= p.offerThreshold*float64(p.pool.bestCost()) || p.pool.size() < p.poolSize {
		p.offers.Add(1)
		if p.pool.offer(e.Solution(), cost) {
			p.accepted.Add(1)
		}
	}

	rs, restartable := e.(csp.Restartable)
	if restartable && p.sinceRst[i] >= p.restartEvery {
		p.sinceRst[i] = 0
		cfgSlice := e.Solution() // correctly sized scratch copy
		if p.rngs[i].Float64() < p.restartFromPool && p.pool.sample(cfgSlice, p.rngs[i]) {
			p.poolRestarts.Add(1)
		} else {
			p.rngs[i].PermInto(cfgSlice)
		}
		rs.RestartFrom(cfgSlice)
		p.schedRestarts.Add(1)
		return e.Solved()
	}
	return false
}

// Cooperative runs the dependent multi-walk in lockstep virtual time (the
// mode comparable to Virtual — the extension benchmarks compare the two
// directly). Each walker runs the engine its factory builds; at every
// quantum boundary it may offer its configuration to the pool, and every
// RestartEvery iterations the scheduler restarts it — with probability
// RestartFromPool from a pooled crossroad instead of a fresh random
// permutation — through the csp.Restartable hook. Engines that do not
// implement csp.Restartable simply never restart (the scheduler cannot
// intercept their trajectory), so factories should disable their internal
// restart policies to hand control to the scheduler.
//
// The lockstep rounds are stepped by MaxParallelism workers while the
// pool communication runs between rounds in walker order, so results are
// deterministic for a given master seed whatever the worker count.
// Cancelling ctx stops the run at the next round boundary with a partial
// result.
//
// maxVirtualIterations bounds each walker's virtual time (0 = unlimited).
func Cooperative(ctx context.Context, newModel func() csp.Model, cfg CoopConfig, maxVirtualIterations int64) CoopResult {
	return cooperative(ctx, newModel, cfg, maxVirtualIterations, modeLockstep)
}

// CooperativeParallel runs the dependent multi-walk on real goroutines —
// the wall-clock counterpart of Cooperative, as Parallel is of Virtual.
// Pool communication happens concurrently (the pool is mutex-protected),
// so the winner is nondeterministic like Parallel's; the engines' own
// iteration budgets and ctx bound the run.
func CooperativeParallel(ctx context.Context, newModel func() csp.Model, cfg CoopConfig) CoopResult {
	return cooperative(ctx, newModel, cfg, 0, modeReal)
}

// cooperative is the shared wrapper of both cooperative modes: build the
// engines and the crossroads policy, hand them to the scheduler core, and
// repackage the communication counters.
func cooperative(ctx context.Context, newModel func() csp.Model, cfg CoopConfig, maxVirtualIterations int64, m runMode) CoopResult {
	probe := newModel()
	cfg = cfg.withDefaults(probe.Size())

	engines, seeds := newEngines(newModel, cfg.Config)
	pol := newCoopPolicy(cfg, seeds)

	res := CoopResult{
		Result: run(ctx, engines, schedule{
			mode:       m,
			quantum:    cfg.CheckEvery,
			workers:    cfg.MaxParallelism,
			maxVirtual: maxVirtualIterations,
			policy:     pol,
		}),
	}
	res.Offers = pol.offers.Load()
	res.Accepted = pol.accepted.Load()
	res.PoolRestart = pol.poolRestarts.Load()
	for _, s := range res.Stats {
		res.EngineRestarts += s.Restarts
	}
	res.EngineRestarts -= pol.schedRestarts.Load()
	return res
}
