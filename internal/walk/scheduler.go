package walk

// This file is the scheduler core shared by every multi-walk run mode.
// Parallel, Virtual and Cooperative are thin wrappers around one loop,
// run(), parameterised along two axes:
//
//   - execution mode: real goroutines (first CAS on a done flag wins) or
//     lockstep virtual time (barrier rounds of one quantum each; the
//     walker that solved at the lowest iteration count wins, exactly as a
//     K-core machine would decide it);
//
//   - communication policy: nil for the independent scheme of §V-A, or a
//     policy whose boundary hook runs after each walker's quantum — the
//     cooperative crossroads pool of §VI plugs in here.
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
// sequentially in walker order between rounds. Per-walker trajectories
// and all pool communication are therefore identical whatever
// MaxParallelism is — multi-threaded lockstep runs reproduce the
// single-threaded ones bit for bit.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csp"
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

// schedule bundles the run() parameters resolved from a Config.
type schedule struct {
	mode    runMode
	quantum int // iterations per probe / lockstep round
	workers int // worker goroutines (≤ number of engines)
	// maxVirtual bounds each walker's virtual time in lockstep mode
	// (0 = unlimited); ignored in real mode, where the engines' own
	// iteration budgets bound the run.
	maxVirtual int64
	policy     policy
	// capIters, when non-nil, parks engine i once its own iteration
	// counter reaches capIters[i]: steps are clamped to the remainder and
	// a fully parked field ends the run with no winner. The racing window
	// loop (racing.go) uses this to advance every walker by exactly one
	// reallocation window in both execution modes.
	capIters []int64
	// base holds per-walker virtual-time offsets added to the engines' own
	// iteration counters when the lockstep winner is resolved. The racing
	// loop rebuilds engines mid-run (fresh counters), carrying the replaced
	// engines' iterations here so the winner is still decided on true
	// virtual time. Nil means no offsets.
	base []int64
}

// capRemaining returns how many iterations engine i may still run before
// its cap parks it (and whether a cap applies at all).
func (s schedule) capRemaining(i int, e csp.Engine) (int64, bool) {
	if s.capIters == nil {
		return 0, false
	}
	return s.capIters[i] - e.Stats().Iterations, true
}

// run is the single scheduler loop behind Parallel, Virtual and
// Cooperative. It drives the given engines to the first solution,
// exhaustion of every walker, the virtual-time budget, or cancellation —
// whichever comes first — and assembles the Result.
func run(ctx context.Context, engines []csp.Engine, s schedule) Result {
	start := time.Now()

	// A random initial configuration can already be a solution (always
	// for n ≤ 2); both loops skip solved engines, so detect this up front
	// — the lockstep loop would otherwise spin forever.
	for i, e := range engines {
		if e.Solved() {
			return collect(engines, i, start)
		}
	}

	if s.workers > len(engines) {
		s.workers = len(engines)
	}

	var winner int
	switch s.mode {
	case modeLockstep:
		winner = runLockstep(ctx, engines, s)
	default:
		winner = runReal(ctx, engines, s)
	}
	res := collect(engines, winner, start)
	// An unsolved run with live walkers left only stops because ctx fired
	// (the virtual-time budget is the other early exit — walkers it halts
	// are still unexhausted, so check ctx, not liveness alone).
	if winner < 0 && ctx.Err() != nil {
		for _, e := range engines {
			if !e.Exhausted() {
				res.Cancelled = true
				break
			}
		}
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
					step := s.quantum
					if rem, capped := s.capRemaining(i, e); capped {
						if rem <= 0 {
							continue // parked at its window cap
						}
						if rem < int64(step) {
							step = int(rem)
						}
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
		anySolved   atomic.Bool
		next        atomic.Int64 // the round's next unclaimed walker
		virtualTime int64
		wg          sync.WaitGroup
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
			step := s.quantum
			if rem, capped := s.capRemaining(i, e); capped {
				if rem <= 0 {
					continue // parked at its window cap
				}
				if rem < int64(step) {
					step = int(rem)
				}
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
		virtualTime += int64(s.quantum)

		if anySolved.Load() {
			return lockstepWinner(engines, s.base)
		}
		if s.maxVirtual > 0 && virtualTime >= s.maxVirtual {
			return -1
		}
		allDead := true
		for i, e := range engines {
			if e.Solved() || e.Exhausted() {
				continue
			}
			if rem, capped := s.capRemaining(i, e); capped && rem <= 0 {
				continue // parked, not dead — the caller's window loop resumes it
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
// iteration counts, which is exactly what a K-core machine would observe.
// base, when non-nil, holds per-walker virtual-time offsets (iterations
// accumulated on engines replaced mid-run by the racing loop).
func lockstepWinner(engines []csp.Engine, base []int64) int {
	winner := -1
	var best int64
	for i, e := range engines {
		if !e.Solved() {
			continue
		}
		it := e.Stats().Iterations
		if base != nil {
			it += base[i]
		}
		if winner == -1 || it < best {
			winner, best = i, it
		}
	}
	return winner
}
