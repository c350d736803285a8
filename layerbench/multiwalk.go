package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/registry"
	"repro/internal/walk"
)

// The multiwalk workload is the paper's Table III unit: adaptive search
// on CAP order 16, 32 lockstep virtual walkers, one closed-loop caller
// solving a seeded list of master seeds. The costas kernel, the adaptive
// engine and the walk scheduler do nearly all the work.
const (
	mwOrder   = 16
	mwWalkers = 32
	// mwPerSecond is the solve rate on the reference machine (2 cores),
	// which sizes the op list to the run length.
	mwPerSecond = 9
	// mwSetups is how many times set-up is repeated to take its median.
	mwSetups = 5
	// mwWarmIters caps each walker of the warm-up solve, so set-up is a
	// fixed amount of work whatever the seed.
	mwWarmIters = 100
	// mwQuantum is the lockstep quantum (the paper's probe period c). A
	// solve ends on a round boundary, so with the default 64 a median
	// latency snaps between round counts about 9 % apart; 16 makes the
	// steps 2 %. The makespan in iterations does not depend on it.
	mwQuantum = 16
)

func multiwalkThreads() int { return min(runtime.GOMAXPROCS(0), mwWalkers) }

func mwOptions(seed uint64) core.Options {
	return core.Options{N: mwOrder, Walkers: mwWalkers, Virtual: true, Seed: seed, CheckEvery: mwQuantum}
}

// mwOp is one solve's outcome.
type mwOp struct {
	ok       bool
	wall     time.Duration
	walkWall time.Duration // walk.Result.WallTime: the scheduler loop
	makespan int64
	total    int64
}

func runMultiwalk(cfg config) (*report, error) {
	ctx := context.Background()
	rep := &report{metrics: map[string]float64{}}

	// Set-up: everything before the first timed solve — the seeded op
	// list, option validation and a fixed-budget warm-up solve.
	var seeds []uint64
	setups := make([]float64, mwSetups)
	for k := range setups {
		t := time.Now()
		seeds = distinctSeeds(seedStream(cfg.seed, 1), cfg.ops(mwPerSecond, 4), nil)
		// A warm-up walker may solve inside its budget and end set-up
		// early; a fresh seed per repetition keeps that out of the median.
		warm := mwOptions(seeds[k%len(seeds)] ^ 0x5eed)
		warm.MaxIterations = mwWarmIters
		if err := warm.Validate(); err != nil {
			return nil, err
		}
		if _, err := core.Solve(ctx, warm); err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		setups[k] = time.Since(t).Seconds()
	}

	plain := make([]mwOp, len(seeds))
	start := time.Now()
	for i, s := range seeds {
		t := time.Now()
		res, err := core.Solve(ctx, mwOptions(s))
		plain[i] = mwOp{
			ok:       err == nil && res.Solved && len(res.Array) == mwOrder && costas.IsCostas(res.Array),
			wall:     time.Since(t),
			walkWall: res.WallTime,
			makespan: res.Iterations,
			total:    res.TotalIterations,
		}
	}
	listWall := time.Since(start)

	rep.attempted = len(seeds)
	lat := make([]float64, len(plain))
	var makespan, total float64
	for i, op := range plain {
		if !op.ok {
			rep.fail("op %d (seed %d) did not return a verified Costas array", i, seeds[i])
		}
		lat[i] = ms(op.wall)
		makespan += float64(op.makespan)
		total += float64(op.total)
	}
	rep.makespan = makespan / float64(len(seeds))
	if !cfg.trace {
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["p50_ms"] = median(lat)
		rep.metrics["tail_ms"], _, _ = tail(lat)
		rep.metrics["ops_per_s"] = float64(len(seeds)) / listWall.Seconds()
		rep.metrics["iters_per_s"] = total / listWall.Seconds()
		rep.metrics["makespan_iters"] = rep.makespan
		rep.metrics["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
		rep.note("%s", tailNote("multiwalk tail_ms", lat))
		return rep, nil
	}
	return rep, traceMultiwalk(ctx, rep, seeds, plain, listWall)
}

// traceMultiwalk re-runs the op list through the facade's own public
// pieces — core.WalkConfigFor (planning), walk.Virtual (engine
// construction and the lockstep scheduler) and the Costas check — with
// timed models and engines, and attributes each op's wall time to the
// facade, the scheduler's waiting, the engine and the kernel.
func traceMultiwalk(ctx context.Context, rep *report, seeds []uint64, plain []mwOp, plainWall time.Duration) error {
	inst, err := registry.BuildSpec(fmt.Sprintf("costas n=%d", mwOrder))
	if err != nil {
		return err
	}
	workers := multiwalkThreads()
	var (
		opWall, overhead, runWall time.Duration
		scanNS, stepNS            int64
		scanCalls, rounds         int64
		iters, resets, restarts   int64
		solveOverhead             time.Duration
	)
	start := time.Now()
	for i, s := range seeds {
		var models []*timedModel
		var engines []*timedEngine
		t0 := time.Now()
		wcfg, err := core.WalkConfigFor(inst, mwOptions(s))
		if err != nil {
			return err
		}
		plan := time.Since(t0)
		factory := wcfg.Factory
		wcfg.Factory = func(m csp.Model, seed uint64) csp.Engine {
			e := &timedEngine{Engine: factory(m, seed)}
			engines = append(engines, e)
			return e
		}
		newModel := func() csp.Model {
			m := &timedModel{Model: costas.New(mwOrder, costas.Options{})}
			models = append(models, m)
			return m
		}
		tw := time.Now()
		res := walk.Virtual(ctx, newModel, wcfg, 0)
		virtual := time.Since(tw)
		tv := time.Now()
		ok := res.Solved && costas.IsCostas(res.Solution)
		verify := time.Since(tv)
		wall := time.Since(t0)

		rep.attempted++
		if !ok {
			rep.fail("traced op %d (seed %d) did not return a verified Costas array", i, s)
		}
		if res.WinnerIterations != plain[i].makespan || res.TotalIterations != plain[i].total {
			rep.fail("traced op %d (seed %d) walked %d/%d iterations, untraced %d/%d",
				i, s, res.WinnerIterations, res.TotalIterations, plain[i].makespan, plain[i].total)
		}
		opWall += wall
		overhead += plan + (virtual - res.WallTime) + verify
		runWall += res.WallTime
		solveOverhead += plain[i].wall - plain[i].walkWall
		for _, m := range models {
			scanNS += m.scanNS
			scanCalls += m.scanCalls
		}
		var opRounds int64
		for _, e := range engines {
			stepNS += e.stepNS
			opRounds = max(opRounds, e.stepCalls)
		}
		rounds += opRounds
		for _, st := range res.Stats {
			iters += st.Iterations
			resets += st.Resets
			restarts += st.Restarts
		}
	}
	traceWall := time.Since(start)

	n := float64(len(seeds))
	w := float64(workers)
	// Layer times in wall-clock terms: the scheduler's W threads share
	// the kernel and engine time, and the rest of the loop is waiting.
	kernel := float64(scanNS) / w
	self := float64(stepNS-scanNS) / w
	wait := float64(runWall) - float64(stepNS)/w
	attributed := float64(overhead) + kernel + self + wait
	unattributed := math.Abs(float64(opWall)-attributed) / float64(opWall)

	m := rep.metrics
	m["costas.scan_ns"] = float64(scanNS) / float64(scanCalls)
	m["costas.scan_calls_per_iter"] = float64(scanCalls) / float64(iters)
	m["adaptive.self_ns_per_iter"] = float64(stepNS-scanNS) / float64(iters)
	m["adaptive.resets_per_kiter"] = 1000 * float64(resets) / float64(iters)
	m["adaptive.restarts_per_kiter"] = 1000 * float64(restarts) / float64(iters)
	m["walk.wait_share"] = 1 - float64(stepNS)/(float64(runWall)*w)
	m["walk.rounds_per_op"] = float64(rounds) / n
	m["core.overhead_ms"] = ms(overhead) / n
	m["unattributed_share"] = unattributed
	m["trace.overhead_share"] = traceWall.Seconds()/plainWall.Seconds() - 1

	rep.note("multiwalk layers per op: core %.4f ms + walk wait %.4f ms + adaptive self %.4f ms + costas kernel %.4f ms = %.4f ms of %.4f ms op wall (%d lockstep threads)",
		ms(overhead)/n, wait/n/1e6, self/n/1e6, kernel/n/1e6, attributed/n/1e6, ms(opWall)/n, workers)
	rep.note("multiwalk untraced core.Solve wall - walk wall = %.4f ms per op", ms(solveOverhead)/n)
	if scanCalls == 0 {
		rep.fail("the traced engines never called ScanSwaps: the wrapper lost the ScanModel path")
	}
	if unattributed > unattributedTolerance {
		rep.fail("multiwalk layers leave %.4f of op wall unattributed (tolerance %g)", unattributed, unattributedTolerance)
	}
	return nil
}
