package walk

// This file is the scheduler shared by every multi-walk run: Parallel and
// Virtual are one-line calls into drive(), the single window loop.
//
// A run is a sequence of windows. A run without an Allocator is one
// window, uncapped unless a virtual-time budget caps it; a racing run's
// Allocator decides each window's length and, between windows, which
// arm every walker runs next (racing.go). Each window is one call of the
// step loop of the execution mode:
//
//   - real goroutines (runReal: first CAS on a done flag wins) or
//     lockstep virtual time (runLockstep: barrier rounds of one quantum
//     each; the walker that solved at the lowest virtual time wins,
//     exactly as a K-core machine would decide it);
//
//   - with an optional communication policy whose boundary hook runs
//     after each walker's quantum — the cooperative crossroads pool of
//     §VI (Config.Crossroads) plugs in here.
//
// The up-front solved check, the terminal checks after a window (winner,
// cancellation, every walker dead, virtual budget spent), the
// cancelled-run detection and the Result assembly (collect) exist once,
// in drive, for independent, cooperative and racing runs alike.
//
// Cancellation is uniform: every mode honours ctx. Real-mode workers
// probe ctx after each quantum (the paper's "non-blocking tests every c
// iterations"); the lockstep loop probes it between rounds, so a round of
// K/workers × quantum iterations bounds the cancellation latency. A
// cancelled run returns a partial Result (Winner == −1, per-walker Stats
// filled in) rather than an error — the caller can inspect how far each
// walker got.
//
// Determinism: in lockstep mode the engine quanta are claimed dynamically
// by a worker pool (each engine is stepped by exactly one worker per round,
// and rounds are separated by a barrier), while policy boundary hooks run
// sequentially in walker order between rounds, and the window loop itself
// runs on one goroutine. Per-walker trajectories, pool communication and
// racing decisions are therefore identical whatever MaxParallelism is —
// multi-threaded lockstep runs reproduce the single-threaded ones bit for
// bit.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csp"
	"repro/internal/rng"
)

// runMode selects the scheduler's execution mode.
type runMode int

const (
	// modeReal runs walkers on real goroutines with first-solution
	// termination — wall-clock parallelism, nondeterministic winner.
	modeReal runMode = iota
	// modeLockstep advances walkers in barrier-synchronised quanta of
	// virtual time — deterministic winner and makespan.
	modeLockstep
)

// policy is the communication hook of a dependent multi-walk scheme.
// A nil policy is the independent scheme.
type policy interface {
	// boundary runs after walker i advanced one quantum without solving.
	// It may communicate (e.g. offer the configuration to a shared pool)
	// and may restart the engine through csp.Restartable; it reports
	// whether the walker is solved afterwards (a restart can land on a
	// solution). In lockstep mode boundary calls are serialised in walker
	// order; in real mode they run concurrently (one call per walker at a
	// time) and must synchronise any shared state themselves.
	boundary(i int, e csp.Engine) bool
}

// schedule is one window's parameters for runReal/runLockstep.
type schedule struct {
	quantum int // iterations per probe / lockstep round
	workers int // worker goroutines (≤ number of engines)
	policy  policy
	// until, when positive, ends the window at that virtual time: a
	// walker's steps are clamped to the remainder, it parks there, and a
	// fully parked field ends the window with no winner. 0 is uncapped.
	until int64
	// carry holds, per walker, the counters of the engines a racing
	// migration replaced (nil until one is), so virtual time and Result
	// stats cover each walker's whole life, not just its current engine.
	carry []csp.Stats
}

// virtualTime is walker i's virtual time: its engine's iterations plus
// those of the engines it replaced.
func (s schedule) virtualTime(i int, e csp.Engine) int64 {
	it := e.Stats().Iterations
	if s.carry != nil {
		it += s.carry[i].Iterations
	}
	return it
}

// stepFor returns how many iterations walker i may run next: one quantum,
// clamped to the window's remainder; ≤ 0 means it is parked at the
// window's end.
func (s schedule) stepFor(i int, e csp.Engine) int {
	if s.until == 0 {
		return s.quantum
	}
	if rem := s.until - s.virtualTime(i, e); rem < int64(s.quantum) {
		return int(rem)
	}
	return s.quantum
}

// drive is the one multi-walk loop behind Parallel and Virtual. It builds
// the walkers, runs windows until a terminal condition — a winner, ctx
// cancelled, every walker exhausted, the virtual budget spent, or the end
// of a run's only window — and assembles the Result. budget bounds each
// walker's virtual time (0 = unlimited); Parallel passes 0.
func drive(ctx context.Context, newModel func() csp.Model, cfg Config, mode runMode, budget int64) Result {
	cfg = cfg.withDefaults()
	var rc *racer
	if cfg.Allocator != nil {
		if cfg.Crossroads != nil {
			panic("walk: Config.Crossroads and Config.Allocator cannot be combined (a racing run has no crossroads pool)")
		}
		rc = newRacer(cfg)
	}
	seeds := rng.NewChaoticSeeder(cfg.MasterSeed).Seeds(cfg.Walkers)
	engines := make([]csp.Engine, cfg.Walkers)
	for i := range engines {
		factory := cfg.FactoryFor(i)
		if rc != nil {
			factory = rc.arms[rc.assign[i]]
		}
		engines[i] = factory(newModel(), seeds[i])
	}
	s := schedule{quantum: cfg.CheckEvery, workers: min(cfg.MaxParallelism, cfg.Walkers)}
	var pol *coopPolicy
	if cfg.Crossroads != nil {
		pol = newCoopPolicy(cfg.Crossroads.withDefaults(len(engines[0].Solution())), cfg.CheckEvery, seeds)
		s.policy = pol
	}
	if budget > 0 && rc == nil {
		// Without racing windows a budget ends at a lockstep round
		// boundary: the first multiple of the quantum at or past it.
		q := int64(cfg.CheckEvery)
		budget = (budget + q - 1) / q * q
	}

	// A random initial configuration can already be a solution (always
	// for n ≤ 2); the step loops skip solved engines, so detect this up
	// front — the lockstep loop would otherwise spin forever.
	start := time.Now()
	winner := -1
	for i, e := range engines {
		if e.Solved() {
			winner = i
			break
		}
	}
	for w := 0; winner < 0; w++ {
		if rc != nil {
			s.until += rc.window(w)
		}
		if budget > 0 && (s.until == 0 || s.until > budget) {
			s.until = budget
		}
		if mode == modeLockstep {
			winner = runLockstep(ctx, engines, s)
		} else {
			winner = runReal(ctx, engines, s)
		}
		if rc != nil {
			rc.observe(w, engines)
		}
		if rc == nil || winner >= 0 || ctx.Err() != nil || s.until == budget || allExhausted(engines) {
			break
		}
		rc.migrate(w+1, newModel, engines, &s)
		// A restart can land on a solution; resolve it on virtual time
		// exactly like a lockstep round would.
		winner = lockstepWinner(engines, s)
	}

	res := collect(ctx, engines, s.carry, winner, start)
	if pol != nil {
		pol.count(&res)
	}
	return res
}

// allExhausted reports whether every walker hit its iteration budget.
func allExhausted(engines []csp.Engine) bool {
	for _, e := range engines {
		if !e.Exhausted() {
			return false
		}
	}
	return true
}

// collect assembles a Result. Per-walker stats add the carry of replaced
// engines (nil when none was); an unsolved run with live walkers left is
// flagged Cancelled when ctx fired — the virtual-time budget is the other
// early exit, and the walkers it halts are still unexhausted, so check
// ctx, not liveness alone.
func collect(ctx context.Context, engines []csp.Engine, carry []csp.Stats, winner int, start time.Time) Result {
	res := Result{
		Winner:   winner,
		WallTime: time.Since(start),
		Stats:    make([]csp.Stats, len(engines)),
	}
	for i, e := range engines {
		res.Stats[i] = e.Stats()
		if carry != nil {
			res.Stats[i] = carry[i].Add(res.Stats[i])
		}
		res.TotalIterations += res.Stats[i].Iterations
	}
	if winner >= 0 {
		res.Solved = true
		res.Solution = engines[winner].Solution()
		res.WinnerIterations = res.Stats[winner].Iterations
	} else if ctx.Err() != nil {
		res.Cancelled = !allExhausted(engines)
	}
	return res
}

// runReal executes the schedule on real goroutines. Walkers are sharded
// across the worker pool, each worker round-robining its shard — a
// semaphore would serialise excess walkers entirely, which distorts the
// "all walkers advance together" model; the shard rotation is the same
// fairness the MPI version gets from the OS scheduler. The first walker
// to solve wins by compare-and-swap.
func runReal(ctx context.Context, engines []csp.Engine, s schedule) int {
	var (
		done      atomic.Bool
		winnerIdx atomic.Int64
	)
	winnerIdx.Store(-1)

	claim := func(i int) {
		if winnerIdx.CompareAndSwap(-1, int64(i)) {
			done.Store(true)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !done.Load() {
				progress := false
				for i := w; i < len(engines); i += s.workers {
					e := engines[i]
					if e.Solved() || e.Exhausted() {
						continue
					}
					step := s.stepFor(i, e)
					if step <= 0 {
						continue // parked at the window's end
					}
					progress = true
					if e.Step(step) {
						claim(i)
						return
					}
					if s.policy != nil && s.policy.boundary(i, e) {
						claim(i)
						return
					}
					if done.Load() || ctx.Err() != nil {
						return
					}
				}
				if !progress {
					return // shard fully exhausted
				}
			}
		}(w)
	}
	wg.Wait()
	return int(winnerIdx.Load())
}

// runLockstep executes the schedule in barrier-synchronised virtual time.
// Each round advances every live walker one quantum (each worker claims
// the next unclaimed walker until none is left), then runs the policy
// boundary hooks sequentially in walker order — so lockstep runs are
// deterministic for any worker count.
func runLockstep(ctx context.Context, engines []csp.Engine, s schedule) int {
	var (
		anySolved atomic.Bool
		next      atomic.Int64 // the round's next unclaimed walker
		wg        sync.WaitGroup
	)
	// stepped[i] marks walkers that advanced this round without solving —
	// the ones whose quantum boundary the policy sees. Each index is
	// written only by the worker that claimed walker i this round and
	// read after the barrier.
	stepped := make([]bool, len(engines))

	claimAndStep := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(engines) {
				return
			}
			e := engines[i]
			stepped[i] = false
			if e.Solved() || e.Exhausted() {
				continue
			}
			step := s.stepFor(i, e)
			if step <= 0 {
				continue // parked at the window's end
			}
			if e.Step(step) {
				anySolved.Store(true)
			} else {
				stepped[i] = true
			}
		}
	}

	// Persistent worker pool: spawned once and woken each round, so a
	// round costs one channel send per worker rather than a goroutine
	// spawn (runs at quantum 64 execute thousands of rounds). A single
	// worker steps every walker inline with no pool at all.
	var wake []chan struct{}
	if s.workers > 1 {
		wake = make([]chan struct{}, s.workers)
		for w := range wake {
			wake[w] = make(chan struct{})
			go func(w int) {
				for range wake[w] {
					claimAndStep()
					wg.Done()
				}
			}(w)
		}
		defer func() {
			for _, c := range wake {
				close(c)
			}
		}()
	}

	for {
		if ctx.Err() != nil {
			return -1
		}

		// Parallel phase: one quantum for every live walker.
		next.Store(0)
		if s.workers > 1 {
			wg.Add(s.workers)
			for _, c := range wake {
				c <- struct{}{}
			}
			wg.Wait()
		} else {
			claimAndStep()
		}

		// Sequential phase: boundary hooks in walker order.
		if s.policy != nil {
			for i, e := range engines {
				if stepped[i] && s.policy.boundary(i, e) {
					anySolved.Store(true)
				}
			}
		}

		if anySolved.Load() {
			return lockstepWinner(engines, s)
		}
		allDead := true
		for i, e := range engines {
			if e.Solved() || e.Exhausted() || s.stepFor(i, e) <= 0 {
				continue // parked walkers end the window, not the run
			}
			allDead = false
			break
		}
		if allDead {
			return -1
		}
	}
}

// lockstepWinner picks the walker that solved at the lowest virtual time;
// within one round several may have solved — compare exact per-walker
// virtual times, which is exactly what a K-core machine would observe.
func lockstepWinner(engines []csp.Engine, s schedule) int {
	winner := -1
	var best int64
	for i, e := range engines {
		if !e.Solved() {
			continue
		}
		if it := s.virtualTime(i, e); winner == -1 || it < best {
			winner, best = i, it
		}
	}
	return winner
}
