package walk

// Racing-portfolio execution: the policy behind Config.Allocator.
//
// A racing run is the independent multi-walk of §V-A with one twist: the
// walker→method assignment is re-decided every window instead of being
// pinned at start. The window loop itself is drive() in scheduler.go —
// each window runs every walker up to the window's end in virtual time,
// after which the racer feeds the Allocator the windowed csp.Stats
// deltas and boundary costs and applies the next assignment.
//
// Reassignment reuses the csp.Restartable rebuild path the campaign layer
// already relies on: a walker moving to a new arm gets a FRESH engine
// from the new arm's factory (seeded deterministically from the master
// seed and the window index) re-armed with RestartFrom(current
// configuration) — so the walker keeps its search position, its virtual
// time (carried in Result accounting and in the lockstep winner
// resolution) and counts one genuine restart.
//
// Determinism: the racer runs on the window loop's goroutine, seeds
// derive from (MasterSeed, window), and the Allocator contract requires
// decisions to be pure functions of the observations — so a fixed-seed
// lockstep racing run reproduces bit for bit: same winner, same stats,
// same allocation schedule.

import (
	"repro/internal/csp"
	"repro/internal/rng"
)

// WalkerObs is one walker's observation over one racing window: the arm
// it ran, its csp.Stats deltas (Stats.Sub) across the window, and its
// configuration cost at the window boundary.
type WalkerObs struct {
	Arm   int
	Delta csp.Stats
	Cost  int
}

// Allocator is the racing-portfolio policy plugged into Config.Allocator.
// The scheduler core calls it only from the window loop's single
// goroutine, in a fixed order: Assign(0) before the run, then for each
// window w: Observe(w, obs) after the window completes, and Assign(w+1)
// if the run continues. Implementations must be deterministic — a pure
// function of construction parameters and the observations fed so far —
// so lockstep runs stay bit-reproducible at any MaxParallelism.
type Allocator interface {
	// Window returns the length of window w in iterations of virtual
	// time per walker; it must be at least 1. The cadence is fixed in
	// practice: race.Controller always returns race.DefaultWindow, and
	// tests override it to get short windows on small instances.
	Window(w int) int64
	// Observe feeds the windowed per-walker observations for window w.
	// It is also called for the final (possibly partial) window, so the
	// observed deltas summed over all windows equal the engines' totals.
	Observe(w int, obs []WalkerObs)
	// Assign returns the walker→arm assignment for window w (length =
	// walker count, values indexing Config.Portfolio). Assign(0) gives
	// the initial split before anything has been observed.
	Assign(w int) []int
}

// racer is a racing run's per-walker allocation state.
type racer struct {
	alloc  Allocator
	arms   []csp.Factory
	master uint64
	assign []int // each walker's current arm
	// prev[i] holds the stats of walker i's CURRENT engine that earlier
	// windows already observed — zero for a fresh engine. It advances
	// after each Observe and resets on migration, so the deltas fed to
	// the Allocator tile each engine's counters exactly: the restart a
	// migration charges (csp.Restartable.RestartFrom counts one) lands in
	// the next window's delta, and the windowed deltas summed over a run
	// equal the per-walker lifetime totals in Result.Stats.
	prev []csp.Stats
}

func newRacer(cfg Config) *racer {
	if len(cfg.Portfolio) == 0 {
		panic("walk: Config.Allocator requires a non-empty Config.Portfolio (the arm factories)")
	}
	return &racer{
		alloc:  cfg.Allocator,
		arms:   cfg.Portfolio,
		master: cfg.MasterSeed,
		assign: nextAssignment(cfg.Allocator, 0, cfg.Walkers, len(cfg.Portfolio)),
		prev:   make([]csp.Stats, cfg.Walkers),
	}
}

// window returns the length of window w. A window below 1 would never
// end; like a bad assignment it is a programming error.
func (r *racer) window(w int) int64 {
	win := r.alloc.Window(w)
	if win < 1 {
		panic("walk: Allocator.Window returned a length below 1")
	}
	return win
}

// observe feeds the Allocator window w's per-walker observations.
func (r *racer) observe(w int, engines []csp.Engine) {
	obs := make([]WalkerObs, len(engines))
	for i, e := range engines {
		st := e.Stats()
		obs[i] = WalkerObs{Arm: r.assign[i], Delta: st.Sub(r.prev[i]), Cost: e.Cost()}
		r.prev[i] = st
	}
	r.alloc.Observe(w, obs)
}

// migrate applies the Allocator's assignment for window w: walkers moving
// arms get a fresh engine re-armed from their current configuration, and
// the replaced engine's counters go to s.carry. An engine that cannot
// restart (no csp.Restartable) or has exhausted its budget stays put — a
// rebuild would lose its position or silently refresh its budget.
func (r *racer) migrate(w int, newModel func() csp.Model, engines []csp.Engine, s *schedule) {
	next := nextAssignment(r.alloc, w, len(engines), len(r.arms))
	var seeds []uint64
	for i, old := range engines {
		if next[i] == r.assign[i] {
			continue
		}
		if old.Exhausted() {
			next[i] = r.assign[i]
			continue
		}
		if seeds == nil {
			seeds = rng.NewChaoticSeeder(rng.Subseed(r.master, uint64(w))).Seeds(len(engines))
		}
		fresh, ok := r.arms[next[i]](newModel(), seeds[i]).(csp.Restartable)
		if !ok {
			next[i] = r.assign[i]
			continue
		}
		fresh.RestartFrom(old.Solution())
		if s.carry == nil {
			s.carry = make([]csp.Stats, len(engines))
		}
		s.carry[i] = s.carry[i].Add(old.Stats())
		engines[i] = fresh
		r.prev[i] = csp.Stats{} // fresh engine: nothing observed yet
	}
	r.assign = next
}

// nextAssignment fetches and validates the Allocator's assignment for
// window w. A misbehaving allocator is a programming error on par with a
// missing factory — fail loudly.
func nextAssignment(a Allocator, w, walkers, arms int) []int {
	assign := a.Assign(w)
	if len(assign) != walkers {
		panic("walk: Allocator.Assign returned wrong walker count")
	}
	for _, arm := range assign {
		if arm < 0 || arm >= arms {
			panic("walk: Allocator.Assign returned arm index out of range")
		}
	}
	return assign
}
