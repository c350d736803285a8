package walk

import (
	"context"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/rng"
	"repro/internal/tabu"
)

func coopConfig(n, walkers int, seed uint64) CoopConfig {
	// The scheduler owns the restart policy, so internal restarts are off.
	p := costas.TunedParams(n)
	p.RestartLimit = -1
	cfg := capConfig(n, walkers, seed)
	cfg.Factory = adaptive.Factory(p)
	return CoopConfig{Config: cfg}
}

func TestCooperativeSolves(t *testing.T) {
	res := Cooperative(context.Background(), capFactory(13), coopConfig(13, 8, 3), 0)
	if !res.Solved {
		t.Fatalf("cooperative run unsolved: %v", res.Result)
	}
	if !costas.IsCostas(res.Solution) {
		t.Fatalf("invalid solution %v", res.Solution)
	}
}

func TestCooperativeDeterministic(t *testing.T) {
	r1 := Cooperative(context.Background(), capFactory(12), coopConfig(12, 8, 7), 0)
	r2 := Cooperative(context.Background(), capFactory(12), coopConfig(12, 8, 7), 0)
	if r1.WinnerIterations != r2.WinnerIterations || r1.Winner != r2.Winner {
		t.Fatalf("cooperative mode not reproducible: (%d,%d) vs (%d,%d)",
			r1.Winner, r1.WinnerIterations, r2.Winner, r2.WinnerIterations)
	}
}

func TestCooperativeZeroProbIsIndependent(t *testing.T) {
	// With RestartFromPool ≈ 0 the scheme must still solve (it degenerates
	// to independent multi-walk with scheduler-side restarts).
	cfg := coopConfig(12, 4, 5)
	zero := 0.0
	cfg.RestartFromPool = &zero // explicit 0: never seed restarts from the pool
	res := Cooperative(context.Background(), capFactory(12), cfg, 0)
	if !res.Solved {
		t.Fatal("independent-degenerate cooperative run unsolved")
	}
	if res.PoolRestart != 0 {
		t.Fatalf("pool restarts happened with probability 0: %d", res.PoolRestart)
	}
}

func TestCooperativeCommunicationCounters(t *testing.T) {
	// On an instance hard enough to need restarts, the pool must see
	// offers and some accepted entries.
	cfg := coopConfig(15, 8, 11)
	res := Cooperative(context.Background(), capFactory(15), cfg, 0)
	if !res.Solved {
		t.Fatal("unsolved")
	}
	if res.Offers == 0 || res.Accepted == 0 {
		t.Fatalf("no pool traffic recorded: %+v", res)
	}
	if res.Accepted > res.Offers {
		t.Fatalf("accepted %d > offers %d", res.Accepted, res.Offers)
	}
}

func TestCooperativeSchedulerOwnsRestarts(t *testing.T) {
	// With internal restarts disabled (as coopConfig wires them), every
	// restart is scheduler-issued, so EngineRestarts must be zero; a
	// factory with the engine's own restart policy left on must show up
	// in the counter.
	res := Cooperative(context.Background(), capFactory(15), coopConfig(15, 8, 11), 0)
	if !res.Solved {
		t.Fatal("unsolved")
	}
	if res.EngineRestarts != 0 {
		t.Fatalf("disabled-restart engines still restarted on their own %d times", res.EngineRestarts)
	}

	leaky := coopConfig(14, 4, 3)
	leaky.Factory = adaptive.Factory(costas.TunedParams(14)) // RestartLimit left on
	lres := Cooperative(context.Background(), capFactory(14), leaky, 0)
	var total int64
	for _, s := range lres.Stats {
		total += s.Restarts
	}
	if total > 0 && lres.EngineRestarts == 0 {
		t.Fatalf("engine-internal restarts not surfaced: stats=%d engine=%d", total, lres.EngineRestarts)
	}
}

func TestCooperativeBudgetStops(t *testing.T) {
	res := Cooperative(context.Background(), capFactory(18), coopConfig(18, 4, 1), 256)
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	for i, s := range res.Stats {
		if s.Iterations > 512 {
			t.Fatalf("walker %d exceeded budget: %d", i, s.Iterations)
		}
	}
}

func TestCooperativePortfolio(t *testing.T) {
	// A mixed-method cooperative run: both methods implement
	// csp.Restartable, so both participate in pool restarts.
	cfg := coopConfig(12, 6, 13)
	p := costas.TunedParams(12)
	p.RestartLimit = -1
	cfg.Portfolio = append(cfg.Portfolio, adaptive.Factory(p), tabu.Factory(tabu.Params{}))
	res := Cooperative(context.Background(), capFactory(12), cfg, 0)
	if !res.Solved || !costas.IsCostas(res.Solution) {
		t.Fatalf("portfolio cooperative run failed: %+v", res.Result)
	}
}

func TestCrossroadPool(t *testing.T) {
	p := newCrossroadPool(2)
	if p.size() != 0 || p.bestCost() != int(^uint(0)>>1) {
		t.Fatal("empty pool accessors wrong")
	}
	if !p.offer([]int{0, 1}, 10) {
		t.Fatal("offer to empty pool rejected")
	}
	if !p.offer([]int{1, 0}, 5) {
		t.Fatal("better offer rejected")
	}
	if p.bestCost() != 5 || p.size() != 2 {
		t.Fatalf("pool state wrong: best=%d size=%d", p.bestCost(), p.size())
	}
	// Worse than current worst, pool full: rejected.
	if p.offer([]int{0, 1}, 50) {
		t.Fatal("worse-than-worst offer accepted into full pool")
	}
	// Better than worst: evicts.
	if !p.offer([]int{0, 1}, 7) {
		t.Fatal("mid-cost offer rejected")
	}
	if p.size() != 2 {
		t.Fatalf("pool grew past max: %d", p.size())
	}
	dst := make([]int, 2)
	if !p.sample(dst, rng.New(1)) {
		t.Fatal("sample from non-empty pool failed")
	}
}

func TestCrossroadPoolCopiesConfigs(t *testing.T) {
	p := newCrossroadPool(4)
	cfg := []int{2, 0, 1}
	p.offer(cfg, 3)
	cfg[0] = 99
	dst := make([]int, 3)
	p.sample(dst, rng.New(2))
	if dst[0] == 99 {
		t.Fatal("pool shares caller storage")
	}
}

func TestCooperativeVsVirtualSameInterface(t *testing.T) {
	// The extension must be a drop-in: same Result surface, valid stats.
	res := Cooperative(context.Background(), capFactory(12), coopConfig(12, 4, 9), 0)
	var sum int64
	for _, s := range res.Stats {
		sum += s.Iterations
	}
	if sum != res.TotalIterations {
		t.Fatalf("TotalIterations %d != Σ stats %d", res.TotalIterations, sum)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestCoopConfigZeroProbSurvivesDefaults(t *testing.T) {
	// Regression: withDefaults used to rewrite RestartFromPool == 0 to the
	// 0.5 default, making the documented "0 reduces to independent
	// multi-walk" unreachable. With the pointer field, nil means the
	// default and an explicit &0 stays 0.
	zero := 0.0
	cfg := CoopConfig{RestartFromPool: &zero}.withDefaults(12)
	if *cfg.RestartFromPool != 0 {
		t.Fatalf("explicit 0 rewritten to %v", *cfg.RestartFromPool)
	}
	def := CoopConfig{}.withDefaults(12)
	if def.RestartFromPool == nil || *def.RestartFromPool != 0.5 {
		t.Fatalf("nil did not default to 0.5: %v", def.RestartFromPool)
	}
}

func TestCooperativeOffersCountActualOffersOnly(t *testing.T) {
	// Regression: Offers used to count every quantum boundary, not actual
	// pool offers. With a tiny pool and a strict interestingness filter,
	// offers must be far rarer than quantum boundaries.
	cfg := coopConfig(15, 8, 11)
	cfg.PoolSize = 1
	cfg.OfferThreshold = 0.01 // only near-best configurations qualify
	res := Cooperative(context.Background(), capFactory(15), cfg, 0)
	boundaries := res.TotalIterations / int64(64) // CheckEvery default
	if boundaries < 10 {
		t.Skip("run too short to distinguish offers from boundaries")
	}
	if res.Offers*2 > boundaries {
		t.Fatalf("Offers (%d) tracks quantum boundaries (%d), not actual offers",
			res.Offers, boundaries)
	}
	if res.Accepted > res.Offers {
		t.Fatalf("accepted %d > offers %d", res.Accepted, res.Offers)
	}
}

func TestCooperativeDeterministicAcrossWorkerCounts(t *testing.T) {
	// The multi-threaded lockstep mode hands engine quanta to workers
	// but serialises pool communication in walker order between rounds, so
	// the full outcome — winner, makespan, pool counters — must not depend
	// on MaxParallelism.
	run := func(workers int) CoopResult {
		cfg := coopConfig(13, 8, 17)
		cfg.MaxParallelism = workers
		return Cooperative(context.Background(), capFactory(13), cfg, 0)
	}
	r1 := run(1)
	for _, workers := range []int{2, 4, 8} {
		r := run(workers)
		if r.Winner != r1.Winner || r.WinnerIterations != r1.WinnerIterations ||
			r.Offers != r1.Offers || r.Accepted != r1.Accepted || r.PoolRestart != r1.PoolRestart {
			t.Fatalf("workers=%d diverges from single-threaded lockstep:\n got %+v\nwant %+v",
				workers, r, r1)
		}
	}
}

func TestCooperativeParallelSolves(t *testing.T) {
	// The real-goroutine cooperative mode: same config surface, wall-clock
	// concurrency, mutex-protected pool.
	res := CooperativeParallel(context.Background(), capFactory(13), coopConfig(13, 8, 3))
	if !res.Solved {
		t.Fatalf("cooperative parallel run unsolved: %v", res.Result)
	}
	if !costas.IsCostas(res.Solution) {
		t.Fatalf("invalid solution %v", res.Solution)
	}
	if res.Winner < 0 || res.Winner >= 8 {
		t.Fatalf("winner index %d out of range", res.Winner)
	}
}

func TestCooperativeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: zero lockstep rounds
	res := Cooperative(ctx, capFactory(18), coopConfig(18, 4, 1), 0)
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if res.Winner != -1 {
		t.Fatalf("cancelled run has winner %d", res.Winner)
	}
	if !res.Cancelled {
		t.Fatal("ctx-stopped cooperative run not flagged Cancelled")
	}
	for i, s := range res.Stats {
		if s.Iterations != 0 {
			t.Fatalf("walker %d stepped %d iterations after pre-cancel", i, s.Iterations)
		}
	}
}

func TestCooperativeParallelContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := coopConfig(20, 2, 1)
	res := CooperativeParallel(ctx, capFactory(20), cfg)
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	for i, s := range res.Stats {
		if s.Iterations > 10*64 {
			t.Fatalf("walker %d ignored cancellation: %d iterations", i, s.Iterations)
		}
	}
}
