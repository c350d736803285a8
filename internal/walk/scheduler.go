package walk

// This file is the scheduler shared by every multi-walk run: Parallel and
// Virtual are one-line calls into drive(), the single window loop.
//
// A run is a sequence of windows. A run without an Allocator is one
// window, uncapped unless a virtual-time budget caps it; a racing run's
// Allocator decides each window's length and, between windows, which
// arm every walker runs next (racing.go). Each window is one call of the
// step loop of the execution mode: real goroutines (runReal: first CAS
// on a done flag wins) or lockstep virtual time (runLockstep: barrier
// rounds of one quantum each; the walker that solved at the lowest
// virtual time wins, exactly as a K-core machine would decide it).
//
// The up-front solved check, the terminal checks after a window (winner,
// cancellation, every walker dead, virtual budget spent), the
// cancelled-run detection and the Result assembly (collect) exist once,
// in drive, for independent and racing runs alike.
//
// Cancellation is uniform: every mode honours ctx. Real-mode workers
// probe ctx after each quantum (the paper's "non-blocking tests every c
// iterations"); the lockstep loop probes it between rounds, so a round of
// K/workers × quantum iterations bounds the cancellation latency. A
// cancelled run returns a partial Result (Winner == −1, per-walker Stats
// filled in) rather than an error — the caller can inspect how far each
// walker got.
//
// Determinism: in lockstep mode each worker steps its home shard of the
// walkers and then steals what is left of the others (each engine is
// stepped by exactly one worker per round, and rounds are separated by a
// barrier), and the window loop itself runs on one goroutine. Claim
// order decides only which thread steps a walker, never what it
// computes: per-walker trajectories and racing decisions are identical
// whatever MaxParallelism is — multi-threaded lockstep runs reproduce
// the single-threaded ones bit for bit.

import (
	"context"
	"runtime"
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

// schedule is one window's parameters for runReal/runLockstep.
type schedule struct {
	quantum int // iterations per probe / lockstep round
	workers int // worker goroutines (≤ number of engines)
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
// walker's virtual time exactly (0 = unlimited): it clamps every window,
// so a walker stops at the budget even inside a quantum. Parallel
// passes 0.
func drive(ctx context.Context, newModel func() csp.Model, cfg Config, mode runMode, budget int64) Result {
	cfg = cfg.withDefaults()
	var rc *racer
	if cfg.Allocator != nil {
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

	return collect(ctx, engines, s.carry, winner, start)
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
// Each round advances every live walker one quantum, and the next round
// starts only once the whole round is done — so lockstep runs are
// deterministic for any worker count.
//
// Worker w owns the home shard [w·K/W, (w+1)·K/W) of the K walkers. In a
// round it claims its own shard's walkers first, through that shard's
// cursor, then steals what is left of the other shards through theirs.
// So a walker is stepped by the same worker round after round unless the
// round is uneven, and its engine and model state stay in that worker's
// CPU cache. The goroutine running this loop is worker 0; the W−1
// helpers are spawned once per window. Between rounds every worker waits
// at a barrier that spins and yields before it parks (parker.wait), so a
// worker that keeps running keeps its OS thread.
func runLockstep(ctx context.Context, engines []csp.Engine, s schedule) int {
	var anySolved atomic.Bool
	advance := func(i int) {
		e := engines[i]
		if e.Solved() || e.Exhausted() {
			return
		}
		step := s.stepFor(i, e)
		if step <= 0 {
			return // parked at the window's end
		}
		if e.Step(step) {
			anySolved.Store(true)
		}
	}

	workers := s.workers
	shardStart := func(w int) int64 { return int64(w * len(engines) / workers) }
	cursors := make([]cursor, workers)
	stepRound := func(home int) {
		for k := range workers {
			w := (home + k) % workers
			end := shardStart(w + 1)
			for i := cursors[w].next.Add(1) - 1; i < end; i = cursors[w].next.Add(1) - 1 {
				advance(int(i))
			}
		}
	}

	// The round barrier. The loop publishes a round by resetting the
	// cursors and pending, then bumping gen; each helper steps, and the
	// one that brings pending to 0 wakes the loop. stopping is published
	// by the last bump, which tells the helpers to exit.
	var (
		gen, pending atomic.Int64
		stopping     bool
		exited       sync.WaitGroup
	)
	parkers := make([]parker, workers) // parkers[0] is the loop's own
	for w := range parkers {
		parkers[w].wake = make(chan struct{}, 1)
	}
	for w := 1; w < workers; w++ {
		exited.Add(1)
		go func(w int) {
			defer exited.Done()
			for round := int64(1); ; round++ {
				parkers[w].wait(&gen, round)
				if stopping {
					return
				}
				stepRound(w)
				if pending.Add(-1) == 0 {
					parkers[0].unpark()
				}
			}
		}(w)
	}
	defer func() {
		stopping = true
		gen.Add(1)
		for w := 1; w < workers; w++ {
			parkers[w].unpark()
		}
		exited.Wait()
	}()

	for {
		if ctx.Err() != nil {
			return -1
		}

		// One quantum for every live walker.
		for w := range cursors {
			cursors[w].next.Store(shardStart(w))
		}
		pending.Store(int64(workers - 1))
		gen.Add(1)
		for w := 1; w < workers; w++ {
			parkers[w].unpark()
		}
		stepRound(0)
		parkers[0].wait(&pending, 0)

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

// cursor is a home shard's claim counter: the index of the shard's next
// unclaimed walker. It is padded to a cache line so that claims on one
// shard do not contend with claims on its neighbours.
type cursor struct {
	next atomic.Int64
	_    [56]byte
}

// spinFor bounds how long a lockstep waiter spins and yields before it
// parks. At the paper's orders one walker quantum takes tens of
// microseconds (CAP n = 16, quantum 16: about 40 µs), and a round of
// near-equal walkers ends within about one quantum on every worker, so
// the bound covers the usual wait at the barrier and the loop's checks
// between rounds: workers keep running, and keep their OS thread, from
// round to round. A wait longer than that is an uneven round or an
// oversubscribed machine, where a parked waiter frees its thread for the
// work it is waiting on. See DESIGN.md §4.
const spinFor = 50 * time.Microsecond

// parker lets one goroutine wait for an atomic counter to reach a value
// set by other goroutines: it spins and yields for up to spinFor, then
// parks on its wake channel.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one token is outstanding
}

// wait returns once v holds want. A setter stores to v before it calls
// unpark, and the waiter raises parked before its last look at v, so
// either that look sees want or unpark sees parked: no wakeup is lost.
// A waiter that sees want after parking takes its flag back, or, if an
// unpark got there first, consumes the token that unpark sends. An
// unpark can also come late: its setter served an earlier wait, which
// returned while spinning, and only then found this wait's flag raised.
// So a woken waiter looks at v again and parks again if it is not there.
func (p *parker) wait(v *atomic.Int64, want int64) {
	for start := time.Now(); time.Since(start) < spinFor; runtime.Gosched() {
		if v.Load() == want {
			return
		}
	}
	for {
		p.parked.Store(true)
		if v.Load() == want && p.parked.CompareAndSwap(true, false) {
			return
		}
		<-p.wake
		if v.Load() == want {
			return
		}
	}
}

// unpark wakes the goroutine parked in wait, if there is one.
func (p *parker) unpark() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
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
