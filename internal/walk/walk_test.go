package walk

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/hillclimb"
	"repro/internal/tabu"
)

func capFactory(n int) func() csp.Model {
	return func() csp.Model { return costas.New(n, costas.Options{}) }
}

func capConfig(n, walkers int, seed uint64) Config {
	return Config{
		Walkers:    walkers,
		Factory:    adaptive.Factory(costas.TunedParams(n)),
		MasterSeed: seed,
	}
}

// capConfigMaxIter is capConfig with a per-walker iteration budget.
func capConfigMaxIter(n, walkers int, seed uint64, maxIter int64) Config {
	p := costas.TunedParams(n)
	p.MaxIterations = maxIter
	cfg := capConfig(n, walkers, seed)
	cfg.Factory = adaptive.Factory(p)
	return cfg
}

func TestParallelSolvesCAP12(t *testing.T) {
	res := Parallel(context.Background(), capFactory(12), capConfig(12, 4, 1))
	if !res.Solved {
		t.Fatalf("parallel run unsolved: %v", res)
	}
	if !costas.IsCostas(res.Solution) {
		t.Fatalf("winner produced non-Costas %v", res.Solution)
	}
	if res.Winner < 0 || res.Winner >= 4 {
		t.Fatalf("winner index %d out of range", res.Winner)
	}
	if res.WinnerIterations <= 0 {
		t.Fatal("winner iterations not recorded")
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats for %d walkers, want 4", len(res.Stats))
	}
}

func TestParallelSingleWalker(t *testing.T) {
	res := Parallel(context.Background(), capFactory(10), capConfig(10, 1, 2))
	if !res.Solved || res.Winner != 0 {
		t.Fatalf("single-walker run failed: %v", res)
	}
}

func TestParallelHonoursExhaustion(t *testing.T) {
	cfg := capConfigMaxIter(18, 3, 3, 200) // nobody solves CAP 18 in 200 iterations
	res := Parallel(context.Background(), capFactory(18), cfg)
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if res.Winner != -1 {
		t.Fatalf("unsolved run has winner %d", res.Winner)
	}
	for i, s := range res.Stats {
		if s.Iterations > 200 {
			t.Fatalf("walker %d ran %d iterations over budget", i, s.Iterations)
		}
	}
}

func TestVirtualSolvesAndIsDeterministic(t *testing.T) {
	run := func() Result {
		return Virtual(context.Background(), capFactory(13), capConfig(13, 16, 99), 0)
	}
	r1 := run()
	r2 := run()
	if !r1.Solved || !r2.Solved {
		t.Fatalf("virtual runs unsolved: %v / %v", r1, r2)
	}
	if r1.Winner != r2.Winner || r1.WinnerIterations != r2.WinnerIterations {
		t.Fatalf("virtual mode not deterministic: (%d,%d) vs (%d,%d)",
			r1.Winner, r1.WinnerIterations, r2.Winner, r2.WinnerIterations)
	}
	if !costas.IsCostas(r1.Solution) {
		t.Fatalf("invalid solution %v", r1.Solution)
	}
}

func TestVirtualWinnerIsMinimal(t *testing.T) {
	res := Virtual(context.Background(), capFactory(12), capConfig(12, 32, 5), 0)
	if !res.Solved {
		t.Fatal("unsolved")
	}
	// Winner's iterations are within one quantum of the virtual makespan:
	// every surviving walker advanced at least ⌈I*/c⌉−1 full quanta.
	c := int64(64)
	round := (res.WinnerIterations + c - 1) / c
	for i, s := range res.Stats {
		if s.Iterations < (round-1)*c && i != res.Winner {
			t.Fatalf("walker %d stopped at %d iterations before the winning round %d",
				i, s.Iterations, round)
		}
	}
}

func TestVirtualMoreWalkersFasterVirtualTime(t *testing.T) {
	// The multi-walk premise (§V): the minimum of K runtimes shrinks with
	// K. Compare K=1 vs K=64 over several master seeds; the K=64 winner
	// should be faster on average (loose 2× requirement to keep the test
	// robust to noise).
	var sum1, sum64 int64
	for seed := uint64(0); seed < 5; seed++ {
		r1 := Virtual(context.Background(), capFactory(13), capConfig(13, 1, seed), 0)
		r64 := Virtual(context.Background(), capFactory(13), capConfig(13, 64, seed), 0)
		if !r1.Solved || !r64.Solved {
			t.Fatal("unsolved virtual run")
		}
		sum1 += r1.WinnerIterations
		sum64 += r64.WinnerIterations
	}
	if sum64*2 >= sum1 {
		t.Fatalf("64 virtual cores not faster than 1: sum64=%d sum1=%d", sum64, sum1)
	}
}

func TestVirtualBudgetStops(t *testing.T) {
	cfg := capConfig(18, 4, 7)
	res := Virtual(context.Background(), capFactory(18), cfg, 128) // two rounds of virtual time
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if res.Cancelled {
		t.Fatal("virtual-budget stop mislabelled as ctx cancellation")
	}
	for i, s := range res.Stats {
		if s.Iterations > 192 {
			t.Fatalf("walker %d exceeded virtual budget: %d", i, s.Iterations)
		}
	}
}

func TestVirtualTrivialInstanceReturns(t *testing.T) {
	// n ≤ 2 instances are solved at engine construction; Virtual must
	// detect that up front instead of spinning lockstep rounds forever.
	for _, n := range []int{1, 2} {
		res := Virtual(context.Background(), capFactory(n), capConfig(n, 2, 1), 0)
		if !res.Solved || !costas.IsCostas(res.Solution) {
			t.Fatalf("n=%d trivial virtual run failed: %v", n, res)
		}
		if res.WinnerIterations != 0 {
			t.Fatalf("n=%d: pre-solved walker reports %d iterations", n, res.WinnerIterations)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Walkers != 1 || c.CheckEvery != 64 || c.MaxParallelism < 1 {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestConfigRequiresFactory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FactoryFor on an empty Config did not panic")
		}
	}()
	Config{}.withDefaults().FactoryFor(0)
}

func TestResultString(t *testing.T) {
	res := Virtual(context.Background(), capFactory(10), capConfig(10, 2, 1), 0)
	if res.String() == "" {
		t.Fatal("empty result string")
	}
	unsolved := Result{Winner: -1, Stats: make([]csp.Stats, 2)}
	if unsolved.String() == "" {
		t.Fatal("empty unsolved string")
	}
}

func TestParallelContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: walkers must exit promptly without solving big instance
	cfg := capConfigMaxIter(20, 2, 1, 1<<40)
	res := Parallel(ctx, capFactory(20), cfg)
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	// The probe period bounds the overshoot per walker.
	for i, s := range res.Stats {
		if s.Iterations > 10*64 {
			t.Fatalf("walker %d ignored cancellation: %d iterations", i, s.Iterations)
		}
	}
}

func TestParallelShardingMoreWalkersThanWorkers(t *testing.T) {
	// 8 walkers on 2 workers: the sharded round-robin must still find a
	// solution and keep all walkers' stats.
	cfg := capConfig(12, 8, 21)
	cfg.MaxParallelism = 2
	res := Parallel(context.Background(), capFactory(12), cfg)
	if !res.Solved || len(res.Stats) != 8 {
		t.Fatalf("sharded run failed: %v", res)
	}
	if !costas.IsCostas(res.Solution) {
		t.Fatal("invalid solution from sharded run")
	}
}

func TestVirtualWorkerPoolSharding(t *testing.T) {
	cfg := capConfig(12, 16, 22)
	cfg.MaxParallelism = 3
	res := Virtual(context.Background(), capFactory(12), cfg, 0)
	if !res.Solved || len(res.Stats) != 16 {
		t.Fatalf("sharded virtual run failed: %v", res)
	}
}

func TestTotalIterationsAggregates(t *testing.T) {
	res := Virtual(context.Background(), capFactory(12), capConfig(12, 8, 3), 0)
	var sum int64
	for _, s := range res.Stats {
		sum += s.Iterations
	}
	if sum != res.TotalIterations {
		t.Fatalf("TotalIterations %d != Σ stats %d", res.TotalIterations, sum)
	}
}

// portfolioConfig mixes three methods across walkers, round-robin.
func portfolioConfig(n, walkers int, seed uint64) Config {
	return Config{
		Walkers: walkers,
		Portfolio: []csp.Factory{
			adaptive.Factory(costas.TunedParams(n)),
			tabu.Factory(tabu.Params{}),
			hillclimb.Factory(hillclimb.Params{}),
		},
		MasterSeed: seed,
	}
}

func TestParallelPortfolioMixesMethods(t *testing.T) {
	res := Parallel(context.Background(), capFactory(11), portfolioConfig(11, 6, 4))
	if !res.Solved || !costas.IsCostas(res.Solution) {
		t.Fatalf("portfolio run failed: %v", res)
	}
	if len(res.Stats) != 6 {
		t.Fatalf("stats for %d walkers, want 6", len(res.Stats))
	}
}

func TestVirtualPortfolioDeterministic(t *testing.T) {
	run := func() Result { return Virtual(context.Background(), capFactory(11), portfolioConfig(11, 6, 8), 0) }
	r1, r2 := run(), run()
	if !r1.Solved || r1.Winner != r2.Winner || r1.WinnerIterations != r2.WinnerIterations {
		t.Fatalf("portfolio virtual mode not deterministic: (%d,%d) vs (%d,%d)",
			r1.Winner, r1.WinnerIterations, r2.Winner, r2.WinnerIterations)
	}
	if !costas.IsCostas(r1.Solution) {
		t.Fatalf("invalid solution %v", r1.Solution)
	}
}

func TestVirtualSingleMethodEngines(t *testing.T) {
	// Every baseline method must run the multi-walk on its own as well.
	for name, factory := range map[string]csp.Factory{
		"tabu":      tabu.Factory(tabu.Params{}),
		"hillclimb": hillclimb.Factory(hillclimb.Params{}),
	} {
		cfg := Config{Walkers: 4, Factory: factory, MasterSeed: 9}
		res := Virtual(context.Background(), capFactory(10), cfg, 0)
		if !res.Solved || !costas.IsCostas(res.Solution) {
			t.Fatalf("%s multi-walk failed: %v", name, res)
		}
	}
}

func TestVirtualContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the lockstep loop must run zero rounds
	cfg := capConfigMaxIter(20, 4, 1, 1<<40)
	res := Virtual(ctx, capFactory(20), cfg, 0)
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if res.Winner != -1 {
		t.Fatalf("cancelled run has winner %d", res.Winner)
	}
	if !res.Cancelled {
		t.Fatal("ctx-stopped run not flagged Cancelled")
	}
	for i, s := range res.Stats {
		if s.Iterations != 0 {
			t.Fatalf("walker %d stepped %d iterations after pre-cancel", i, s.Iterations)
		}
	}
}

func TestVirtualDeadlineStopsMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cfg := capConfigMaxIter(22, 4, 1, 1<<40) // effectively unsolvable in 50ms
	start := time.Now()
	res := Virtual(ctx, capFactory(22), cfg, 0)
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	if len(res.Stats) != 4 {
		t.Fatal("partial result lost walker stats")
	}
}

// rotating is a deterministic racing allocator that moves every walker to
// the next arm at each window, so each boundary rebuilds every engine.
type rotating struct {
	walkers, arms int
	window        int64
}

func (r rotating) Window(int) int64         { return r.window }
func (r rotating) Observe(int, []WalkerObs) {}
func (r rotating) Assign(w int) []int {
	assign := make([]int, r.walkers)
	for i := range assign {
		assign[i] = (i + w) % r.arms
	}
	return assign
}

// TestVirtualDeterministicAcrossWorkerCounts: the lockstep scheduler hands
// each walker's quantum to whichever worker claims it, but keeps the round
// barrier and runs boundary hooks in walker order, so the whole outcome —
// winner, makespan, solution and every walker's counters — must not depend
// on MaxParallelism, for independent, cooperative and racing (window-capped)
// runs alike.
func TestVirtualDeterministicAcrossWorkerCounts(t *testing.T) {
	// A short quantum makes every run span many rounds.
	const n, quantum = 13, 8
	runs := map[string]func(workers int) CoopResult{
		"independent": func(workers int) CoopResult {
			cfg := capConfig(n, 16, 77)
			cfg.MaxParallelism, cfg.CheckEvery = workers, quantum
			return CoopResult{Result: Virtual(context.Background(), capFactory(n), cfg, 0)}
		},
		"cooperative": func(workers int) CoopResult {
			cfg := coopConfig(n, 8, 17)
			cfg.MaxParallelism, cfg.CheckEvery = workers, quantum
			cfg.RestartEvery = 4 * quantum // pool restarts in most rounds
			return Cooperative(context.Background(), capFactory(n), cfg, 0)
		},
		"racing": func(workers int) CoopResult {
			cfg := capConfig(n, 8, 3)
			cfg.MaxParallelism, cfg.CheckEvery = workers, quantum
			cfg.Portfolio = []csp.Factory{adaptive.Factory(costas.TunedParams(n)), tabu.Factory(tabu.Params{})}
			cfg.Allocator = rotating{walkers: 8, arms: 2, window: 24}
			return CoopResult{Result: Virtual(context.Background(), capFactory(n), cfg, 1<<16)}
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			// WallTime is the only field allowed to differ.
			outcome := func(workers int) CoopResult {
				r := run(workers)
				r.WallTime = 0
				return r
			}
			want := outcome(1)
			if !want.Solved || want.WinnerIterations <= 4*quantum {
				t.Fatalf("unsolved, or solved within four rounds: %+v", want)
			}
			for _, workers := range []int{2, 3, 5, 16} {
				if got := outcome(workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d diverges from single-threaded lockstep:\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}
