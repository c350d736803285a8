package csp

// This file defines the engine side of the contract: every local-search
// method in the repository (adaptive search, tabu, hill climbing, dialectic
// search) is a resumable walker behind one small interface, so the
// multi-walk runner (internal/walk), the facade (internal/core) and the
// benchmark harnesses can drive any method — or a mixed portfolio of
// methods — over any Model without knowing which algorithm is running.

// Stats is the unified counter block shared by all engines. Each method
// fills the counters that are meaningful for it and leaves the rest zero:
//
//   - Iterations is the method's primary work unit and the virtual-time
//     currency of the multi-walk runner (repair iterations for adaptive
//     search, neighborhood scans for tabu, sampled moves for hill
//     climbing, dialectic rounds for dialectic search);
//   - Evaluations counts configuration-cost evaluations (CostIfSwap/Bind)
//     where the method tracks them (tabu, dialectic);
//   - the remaining counters are per-method event counts the paper's
//     tables and the ablations report.
type Stats struct {
	Iterations   int64 // primary work unit (virtual-time currency)
	Evaluations  int64 // cost evaluations, where counted
	LocalMinima  int64 // strict local minima encountered (adaptive)
	Resets       int64 // reset procedures performed (adaptive)
	Restarts     int64 // full restarts / diversifications
	Swaps        int64 // committed improving moves (adaptive)
	PlateauMoves int64 // committed sideways moves (adaptive)
	UphillMoves  int64 // committed worsening moves (adaptive)
	Moves        int64 // accepted improving moves (hill climbing)
	Aspirations  int64 // tabu moves accepted by aspiration (tabu)
	Rounds       int64 // dialectic thesis→antithesis→synthesis rounds
	Descents     int64 // greedy descents performed (dialectic)
}

// Sub returns the counter deltas since a prior snapshot. Counters are
// cumulative over an engine's lifetime, so a caller that wants the work
// of one stretch of a walk — the racing allocator's per-window
// observations — snapshots Stats() at its start and reports
// Stats().Sub(snapshot) at its end.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Iterations:   s.Iterations - prev.Iterations,
		Evaluations:  s.Evaluations - prev.Evaluations,
		LocalMinima:  s.LocalMinima - prev.LocalMinima,
		Resets:       s.Resets - prev.Resets,
		Restarts:     s.Restarts - prev.Restarts,
		Swaps:        s.Swaps - prev.Swaps,
		PlateauMoves: s.PlateauMoves - prev.PlateauMoves,
		UphillMoves:  s.UphillMoves - prev.UphillMoves,
		Moves:        s.Moves - prev.Moves,
		Aspirations:  s.Aspirations - prev.Aspirations,
		Rounds:       s.Rounds - prev.Rounds,
		Descents:     s.Descents - prev.Descents,
	}
}

// Add returns the field-wise sum of two counter blocks — the inverse of
// Sub, used by layers that accumulate windowed deltas back into totals
// (the racing allocator's per-arm attribution, a walker's lifetime stats
// across engine incarnations).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Iterations:   s.Iterations + o.Iterations,
		Evaluations:  s.Evaluations + o.Evaluations,
		LocalMinima:  s.LocalMinima + o.LocalMinima,
		Resets:       s.Resets + o.Resets,
		Restarts:     s.Restarts + o.Restarts,
		Swaps:        s.Swaps + o.Swaps,
		PlateauMoves: s.PlateauMoves + o.PlateauMoves,
		UphillMoves:  s.UphillMoves + o.UphillMoves,
		Moves:        s.Moves + o.Moves,
		Aspirations:  s.Aspirations + o.Aspirations,
		Rounds:       s.Rounds + o.Rounds,
		Descents:     s.Descents + o.Descents,
	}
}

// Engine is one resumable local-search walker over one Model instance.
// Engines are created solved-aware (a random initial configuration can
// already be a solution) and are not safe for concurrent use; parallel
// search runs one Engine per goroutine (see internal/walk).
//
// The Step/Solve contract is strict: Solve must be exactly a Step loop, so
// that a Step-driven run (the multi-walk's "test for a message every c
// iterations" of §V-A) follows the same trajectory iteration for iteration
// as a monolithic Solve from the same seed. The conformance tests in this
// package's test suite enforce this for every implementation.
type Engine interface {
	// Step runs at most quantum iterations (of the method's work unit) and
	// reports whether the walker is solved. It returns early on solution
	// or exhaustion.
	Step(quantum int) bool

	// Solve runs until a solution is found or the iteration budget is
	// exhausted, reporting success.
	Solve() bool

	// Solved reports whether the walker has reached a zero-cost
	// configuration.
	Solved() bool

	// Exhausted reports whether the iteration budget was hit without a
	// solution.
	Exhausted() bool

	// Cost returns the current configuration's global cost.
	Cost() int

	// Solution returns a copy of the walker's best configuration;
	// meaningful as a solution only once Solved() is true.
	Solution() []int

	// Stats returns a snapshot of the walker's counters.
	Stats() Stats
}

// Factory builds one engine over one fresh model instance, seeded for an
// independent walk. The multi-walk runner invokes it once per walker with
// chaotically-derived seeds (§III-B3); a portfolio run passes a different
// Factory per walker so one run can mix methods.
type Factory func(model Model, seed uint64) Engine

// Restartable is implemented by engines that can be restarted from an
// externally supplied configuration. Two layers build on the hook:
//
//   - the racing multi-walk scheduler (internal/walk, Config.Allocator)
//     re-arms a fresh engine of the walker's new method from its current
//     configuration when it migrates;
//   - the campaign layer (internal/campaign) checkpoints long-running
//     walks: a Snapshot captures a walker's configuration and work count,
//     and resume re-arms a fresh engine with RestartFrom(snapshot.Config)
//     — see TakeSnapshot.
//
// The contract RestartFrom must honour (enforced by the conformance suite
// in this package's tests): install a *copy* of cfg — never alias caller
// storage — rebind the model so Cost() reflects cfg immediately, count
// one restart in Stats, recompute the solved flag from the new cost (in
// both directions: a restart can land on a solution, and a restart off
// one must clear it), and clear per-run search state (tabu marks, stall
// counters, restart clocks) so the walk resumes as if freshly started
// from cfg. Lifetime counters (Stats) and the iteration budget are NOT
// reset: MaxIterations bounds the engine's total work across restarts.
type Restartable interface {
	Engine
	RestartFrom(cfg []int)
}

// Snapshot is a walker's resumable state, captured at a quantum boundary:
// the configuration to restart the walk from, plus the counters a
// checkpoint carries forward. It deliberately contains only what
// RestartFrom can restore — a configuration — not RNG or tabu state:
// a resumed walker is a restart from the snapshot point, which is exactly
// the semantics the Restartable contract defines (per-run search state
// cleared, walk resumes as if freshly started from Config). A layer that
// needs a bit-identical continuation across the snapshot (the campaign
// checkpointer) therefore re-arms its LIVE walker from the same snapshot
// it persists, so the surviving and the recovered walk follow one
// trajectory.
type Snapshot struct {
	// Config is the walker's configuration at capture time (an engine's
	// Solution() — the current configuration, or the best one for methods
	// that track a separate incumbent; either is a valid restart point).
	Config []int
	// Iterations is the walker's iteration count at capture time.
	Iterations int64
	// Cost is the configuration's global cost at capture time.
	Cost int
}

// TakeSnapshot captures e's resumable state. The returned Config is a
// copy (Solution() clones), so the snapshot stays valid while the engine
// walks on.
func TakeSnapshot(e Engine) Snapshot {
	return Snapshot{
		Config:     e.Solution(),
		Iterations: e.Stats().Iterations,
		Cost:       e.Cost(),
	}
}
