// Package walk implements the paper's parallel scheme (§V-A): independent
// multi-walk (multi-start) local search with first-solution termination.
//
// The parallelisation is deliberately communication-free ("Pleasantly
// Parallel") and method-agnostic: K walker engines — built by a
// csp.Factory, so any method implementing csp.Engine (adaptive search,
// tabu, hill climbing, dialectic search) or a mixed portfolio of methods —
// run from different chaotically-derived seeds, and everything stops as
// soon as one finds a solution. On K cores the wall time is the *minimum*
// of K i.i.d. sequential runtimes; with (near-)exponential runtime
// distributions this yields the near-linear speed-ups of Tables III–V.
//
// The package has two entry points, one per execution mode, and both are
// one-line calls into the same window loop (scheduler.go):
//
//   - Parallel: real concurrency, one goroutine per walker (up to
//     GOMAXPROCS effective hardware parallelism). Each walker checks a
//     shared done flag every CheckEvery iterations — the Go analogue of the
//     paper's non-blocking MPI probe "every c iterations".
//
//   - Virtual: a lockstep simulator that advances K walker engines in
//     fixed iteration quanta of virtual time, with K far beyond the
//     physical core count (the paper's 256…8192-core runs on a laptop).
//     Because every walker advances at the same virtual rate, the winner
//     and its iteration count are *exactly* what a K-core machine would
//     produce; only the conversion to seconds goes through a platform's
//     calibrated iteration rate (internal/cluster). Conveniently the
//     simulation costs roughly one sequential solve in total work: the
//     winner's iteration count shrinks like 1/K while K walkers advance.
//
// One optional policy rides on either mode: Config.Allocator turns the
// run into a racing portfolio that reassigns walkers across methods at
// window boundaries (racing.go).
//
// Every run honours context cancellation and deadlines: a cancelled run
// stops promptly (within one probe quantum per walker in real mode, one
// lockstep round in virtual mode) and returns a partial Result with
// Winner == −1 and all per-walker Stats filled in.
package walk

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/csp"
)

// DefaultCheckEvery is the probe period c (and lockstep quantum) used
// when Config.CheckEvery is unset. Campaign epochs, which step engines
// themselves, probe at the same period.
const DefaultCheckEvery = 64

// Config describes a multi-walk run.
type Config struct {
	// Walkers is the number of independent walkers K (the paper's core
	// count). Must be ≥ 1.
	Walkers int

	// CheckEvery is the termination-probe period c in iterations
	// (§V-A: "non-blocking tests are involved every c iterations");
	// it is also the lockstep quantum of the virtual mode. Default
	// DefaultCheckEvery.
	CheckEvery int

	// Factory builds each walker's engine (method + parameters); it is
	// required unless Portfolio is set. Use adaptive.Factory, tabu.Factory,
	// hillclimb.Factory or dialectic.Factory — or any custom csp.Factory.
	Factory csp.Factory

	// Portfolio, when non-empty, overrides Factory with a per-walker
	// factory slice: walker i runs Portfolio[i % len(Portfolio)], so one
	// run can mix methods across walkers (portfolio mode).
	Portfolio []csp.Factory

	// MasterSeed seeds the chaotic sequencer that derives per-walker seeds
	// (§III-B3). Two runs with the same master seed and walker count are
	// identical in the virtual mode and statistically equivalent in the
	// real mode (where OS scheduling breaks determinism of the winner).
	MasterSeed uint64

	// MaxParallelism caps the number of OS-thread-backed goroutines used;
	// 0 means GOMAXPROCS. (Virtual mode uses it for its worker pool.)
	MaxParallelism int

	// Allocator, when non-nil, turns the run into a racing portfolio:
	// Portfolio holds the arm factories and the Allocator reassigns
	// walkers across arms at fixed iteration-window boundaries based on
	// the windowed per-walker stats it observes (internal/race provides
	// the policy). Reassigned walkers keep their configuration — the new
	// arm's engine is re-armed via csp.Restartable.RestartFrom — and
	// their accumulated virtual time. Requires a non-empty Portfolio.
	Allocator Allocator
}

func (c Config) withDefaults() Config {
	if c.Walkers < 1 {
		c.Walkers = 1
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = DefaultCheckEvery
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// FactoryFor returns walker i's engine factory, honouring portfolio mode.
// It panics on a misconfigured run (no factory at all): every caller is
// expected to wire a method, and a silent default would hide the bug.
// Exported for layers that drive engines themselves instead of calling
// Parallel/Virtual — the campaign shard runner rebuilds walker i's engine
// from a checkpoint with exactly this factory.
func (c Config) FactoryFor(i int) csp.Factory {
	if len(c.Portfolio) > 0 {
		return c.Portfolio[i%len(c.Portfolio)]
	}
	if c.Factory == nil {
		panic("walk: Config.Factory or Config.Portfolio must be set")
	}
	return c.Factory
}

// Result reports the outcome of a multi-walk run.
type Result struct {
	Solved   bool
	Solution []int
	Winner   int // index of the winning walker (−1 if unsolved)

	// WinnerIterations is the winning walker's iteration count at the
	// moment it solved — the virtual-time makespan of the run.
	WinnerIterations int64

	// TotalIterations sums iterations across all walkers (the parallel
	// work, ≈ K × WinnerIterations for the real mode).
	TotalIterations int64

	// WallTime is the real elapsed time of the scheduler loop, from the
	// built walkers to the Result (initial engine construction excluded).
	WallTime time.Duration

	// Cancelled reports that the run stopped because ctx was cancelled
	// (or its deadline passed) while walkers were still live — as opposed
	// to solving or exhausting every iteration budget. The Result is then
	// partial: Winner is −1 and Stats shows how far each walker got.
	Cancelled bool

	// Stats holds each walker's final counters.
	Stats []csp.Stats
}

// Parallel runs K walkers concurrently on real goroutines and returns as
// soon as one solves (or ctx is cancelled, or every walker exhausts its
// iteration budget).
//
// newModel must return a fresh, independent model instance per call; it is
// invoked once per walker (and once per racing migration).
func Parallel(ctx context.Context, newModel func() csp.Model, cfg Config) Result {
	return drive(ctx, newModel, cfg, modeReal, 0)
}

// Virtual advances K walker engines in lockstep quanta of CheckEvery
// iterations of virtual time and returns when the first walker solves. The
// returned WinnerIterations is exactly the makespan a K-core machine would
// observe (in iterations); convert to seconds with a cluster.Platform rate.
// Results are deterministic for a given master seed whatever
// MaxParallelism is; cancelling ctx stops the run at the next round
// boundary with a partial Result.
//
// maxVirtualIterations bounds each walker's virtual time (0 = unlimited).
// The bound is exact, with or without an Allocator: a walker's last
// quantum is cut short at the bound, so no walker runs past it.
func Virtual(ctx context.Context, newModel func() csp.Model, cfg Config, maxVirtualIterations int64) Result {
	return drive(ctx, newModel, cfg, modeLockstep, maxVirtualIterations)
}

// String gives a compact human-readable summary.
func (r Result) String() string {
	if !r.Solved {
		return fmt.Sprintf("unsolved (total %d iterations over %d walkers, %v)",
			r.TotalIterations, len(r.Stats), r.WallTime)
	}
	return fmt.Sprintf("solved by walker %d after %d iterations (total %d, %v)",
		r.Winner, r.WinnerIterations, r.TotalIterations, r.WallTime)
}
