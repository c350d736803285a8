// Package adaptive implements the Adaptive Search metaheuristic of Codognet
// & Diaz — the paper's solving engine (§III, Figure 1) — for permutation
// CSPs.
//
// Adaptive Search is an iterative-repair local search guided by constraint
// error functions projected onto variables:
//
//  1. compute the error of every variable in the current configuration;
//  2. select the non-tabu variable with maximal error (the "culprit");
//  3. min-conflict: evaluate swapping the culprit with every other
//     variable and pick the move of minimal resulting global cost;
//  4. if the best move strictly improves, take it; if it merely equals the
//     current cost, follow the plateau with probability p (§III-B1);
//     otherwise the culprit sits on a local minimum: mark it tabu for a few
//     iterations;
//  5. when enough variables are tabu (reset limit RL), escape by a *reset* —
//     either the model's dedicated procedure (csp.Resetter, e.g. the CAP
//     reset of §IV-B2) or the generic re-randomisation of RP % of the
//     variables;
//  6. optionally restart from scratch after a fixed iteration budget.
//
// The engine is *resumable*: Step(quantum) runs at most quantum iterations
// and returns, which is how the parallel multi-walk inserts its
// "non-blocking termination test every c iterations" (§V-A) and how the
// virtual lockstep cluster advances thousands of walkers fairly.
package adaptive

import (
	"fmt"

	"repro/internal/csp"
	"repro/internal/rng"
)

// Params are the Adaptive Search tuning knobs. The zero value is NOT valid;
// start from DefaultParams (the paper's CAP tuning).
type Params struct {
	// TabuTenure is the number of iterations a variable marked at a local
	// minimum stays frozen (the short-term memory of §III).
	TabuTenure int

	// ResetLimit (RL) triggers a reset as soon as this many variables are
	// simultaneously tabu. The paper found RL = 1 best for the CAP.
	ResetLimit int

	// ResetPercent (RP) is the percentage of variables re-randomised by the
	// generic reset (used only when the model has no dedicated Reset);
	// the paper's default is 5 %.
	ResetPercent int

	// PlateauProb is the probability of accepting a sideways (equal-cost)
	// move instead of marking the culprit tabu; §III-B1 reports 0.90–0.95
	// as the effective range.
	PlateauProb float64

	// ProbSelectLocMin is the probability of *accepting* the best
	// (worsening) move at a strict local minimum instead of freezing the
	// culprit — the PROB_SELECT_LOC_MIN knob of the reference Adaptive
	// Search C library. Without it the deterministic mark-tabu→reset path
	// can cycle between a pair of mutually-best perturbations forever.
	ProbSelectLocMin float64

	// RestartLimit controls the restart-from-scratch policy of §III: after
	// this many iterations without a solution the walker draws a fresh
	// random configuration. 0 selects an automatic limit of 1000·n² at
	// engine creation; a negative value disables restarts entirely.
	// For (near-)exponential runtime distributions restarts are cost-free
	// in expectation, and they bound the damage of the rare degenerate
	// attractor a walk can fall into.
	RestartLimit int64

	// MaxIterations, when positive, bounds the total iteration count across
	// restarts; Solve gives up (returns false) once it is exceeded.
	MaxIterations int64
}

// DefaultParams returns the paper's tuned parameter set for the CAP
// (§IV-B2: RL = 1, RP = 5 %; plateau probability in the effective range of
// §III-B1; no restarts — Table I runs to completion).
func DefaultParams() Params {
	return Params{
		TabuTenure:       10,
		ResetLimit:       1,
		ResetPercent:     5,
		PlateauProb:      0.90,
		ProbSelectLocMin: 0.50,
	}
}

// Stats is the unified engine counter block (csp.Stats). Adaptive Search
// fills Iterations (repair iterations), LocalMinima (the Table I column),
// Resets, Restarts, Swaps, PlateauMoves and UphillMoves.
type Stats = csp.Stats

// Engine is a single Adaptive Search walker over one model instance.
// It is not safe for concurrent use; parallel search runs one Engine per
// goroutine (see internal/walk).
type Engine struct {
	model  csp.Model
	probe  csp.Probe
	params Params
	r      *rng.RNG

	cfg       []int
	tabuUntil []int64 // iteration index until which each variable is frozen
	nTabu     int

	iterInRun int64 // iterations since the last restart
	stats     Stats
	solved    bool
	exhausted bool

	// Scratch for min-conflict tie collection; it shares one allocation
	// with the probe's row (see NewEngine).
	bestJs []int

	// Trace, when non-nil, receives one event per iteration — used by the
	// debugging tools and the verbose CLI mode. The hot path pays only a
	// nil check when unset.
	Trace func(iter int64, cost, culprit, bestCost int, action string)
}

// Factory wraps params into a csp.Factory so the multi-walk runner and the
// core facade can create Adaptive Search walkers without importing this
// package's concrete types.
func Factory(params Params) csp.Factory {
	return func(model csp.Model, seed uint64) csp.Engine {
		return NewEngine(model, params, seed)
	}
}

// NewEngine creates a walker for model with an initial random configuration
// drawn from seed. Engines with distinct seeds perform independent walks —
// the unit of parallelism in §V.
func NewEngine(model csp.Model, params Params, seed uint64) *Engine {
	n := model.Size()
	if params.ResetLimit < 1 {
		params.ResetLimit = 1
	}
	if params.TabuTenure < 1 {
		params.TabuTenure = 1
	}
	if params.RestartLimit == 0 {
		params.RestartLimit = 1000 * int64(n) * int64(n)
	}
	e := &Engine{
		model:     model,
		params:    params,
		r:         rng.New(seed),
		tabuUntil: make([]int64, n),
	}
	// One arena backs bestJs and the probe's row; the three-index slice
	// keeps bestJs' append capacity at exactly n.
	scratch := make([]int, 2*n)
	e.bestJs = scratch[:0:n]
	e.probe = csp.NewProbe(model, scratch[n:])
	e.cfg = csp.RandomConfiguration(n, e.r)
	model.Bind(e.cfg)
	e.solved = model.Cost() == 0
	return e
}

// Solved reports whether the walker has reached a zero-cost configuration.
func (e *Engine) Solved() bool { return e.solved }

// Exhausted reports whether MaxIterations was hit without a solution.
func (e *Engine) Exhausted() bool { return e.exhausted }

// Cost returns the current configuration's global cost.
func (e *Engine) Cost() int { return e.model.Cost() }

// Stats returns a snapshot of the walker's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Solution returns a copy of the current configuration; meaningful as a
// solution only once Solved() is true.
func (e *Engine) Solution() []int { return csp.Clone(e.cfg) }

// Step runs at most quantum iterations and reports whether the walker is
// solved. It returns early on solution or exhaustion. This is the paper's
// "test for a message every c iterations" hook: the multi-walk runner calls
// Step(c), then polls for cancellation.
func (e *Engine) Step(quantum int) bool {
	if e.solved || e.exhausted {
		return e.solved
	}
	for k := 0; k < quantum; k++ {
		if e.params.MaxIterations > 0 && e.stats.Iterations >= e.params.MaxIterations {
			e.exhausted = true
			return false
		}
		if e.iterate() {
			e.solved = true
			return true
		}
	}
	return false
}

// Solve runs until a solution is found or MaxIterations is exhausted,
// reporting success.
func (e *Engine) Solve() bool {
	for !e.solved && !e.exhausted {
		e.Step(4096)
	}
	return e.solved
}

// iterate performs one repair iteration of Figure 1; it reports whether the
// configuration reached cost zero.
func (e *Engine) iterate() bool {
	m := e.model
	if m.Cost() == 0 {
		return true
	}
	e.stats.Iterations++
	e.iterInRun++

	// Restart from scratch when the per-run budget is spent (§III: "it is
	// also possible to restart from scratch when the number of iterations
	// becomes too large"); RestartLimit < 0 disables this.
	if e.params.RestartLimit > 0 && e.iterInRun > e.params.RestartLimit {
		e.restart()
		return m.Cost() == 0
	}

	culprit, ok := e.selectCulprit()
	if !ok {
		// Every variable is tabu: treat as a stagnation reset trigger.
		e.reset()
		return m.Cost() == 0
	}

	bestCost, bestJ := e.minConflict(culprit)
	cost := m.Cost()
	action := ""
	switch {
	case bestJ >= 0 && bestCost < cost:
		e.probe.Commit(culprit, bestJ, bestCost-cost)
		e.stats.Swaps++
		action = "improve"
	case bestJ >= 0 && bestCost == cost:
		// Plateau (§III-B1): follow with probability p, else freeze.
		if e.r.Float64() < e.params.PlateauProb {
			e.probe.Commit(culprit, bestJ, 0)
			e.stats.PlateauMoves++
			action = "plateau"
		} else {
			e.markTabu(culprit)
			action = "tabu-plateau"
		}
	default:
		// Strict local minimum for the culprit's neighborhood: with
		// probability ProbSelectLocMin accept the least-bad move anyway
		// (diversification), otherwise freeze the culprit.
		e.stats.LocalMinima++
		if bestJ >= 0 && e.r.Float64() < e.params.ProbSelectLocMin {
			e.probe.Commit(culprit, bestJ, bestCost-cost)
			e.stats.UphillMoves++
			action = "uphill"
		} else {
			e.markTabu(culprit)
			action = "tabu-reset"
		}
	}
	if e.Trace != nil {
		e.Trace(e.stats.Iterations, m.Cost(), culprit, bestCost, action)
	}
	return m.Cost() == 0
}

// selectCulprit returns the non-tabu variable with maximal projected error,
// ties broken uniformly at random; ok is false when all variables are tabu.
func (e *Engine) selectCulprit() (culprit int, ok bool) {
	m := e.model
	now := e.stats.Iterations
	bestErr := -1
	ties := 0
	for v := 0; v < len(e.cfg); v++ {
		if e.tabuUntil[v] > now {
			continue
		}
		err := m.VarCost(v)
		switch {
		case err > bestErr:
			bestErr, culprit, ties = err, v, 1
		case err == bestErr:
			ties++
			if e.r.Intn(ties) == 0 {
				culprit = v
			}
		}
	}
	return culprit, bestErr >= 0
}

// minConflict evaluates swapping culprit with every other variable and
// returns the minimal resulting cost and a partner achieving it, ties
// broken uniformly at random (partner −1 if n == 1).
func (e *Engine) minConflict(culprit int) (bestCost, bestJ int) {
	cur := e.model.Cost()
	bestCost = int(^uint(0) >> 1)
	bestJ = -1
	e.bestJs = e.bestJs[:0]
	for j, d := range e.probe.Row(culprit, 0) {
		if j == culprit {
			continue
		}
		switch c := cur + d; {
		case c < bestCost:
			bestCost = c
			e.bestJs = append(e.bestJs[:0], j)
		case c == bestCost:
			e.bestJs = append(e.bestJs, j)
		}
	}
	if len(e.bestJs) > 0 {
		bestJ = e.bestJs[e.r.Intn(len(e.bestJs))]
	}
	return bestCost, bestJ
}

// markTabu freezes a variable for TabuTenure iterations and fires a reset
// when the number of simultaneously frozen variables reaches ResetLimit.
func (e *Engine) markTabu(v int) {
	now := e.stats.Iterations
	if e.tabuUntil[v] <= now {
		e.nTabu = 0 // recount lazily below; tenures expire silently
		for i := range e.tabuUntil {
			if e.tabuUntil[i] > now {
				e.nTabu++
			}
		}
		e.tabuUntil[v] = now + int64(e.params.TabuTenure)
		e.nTabu++
	}
	if e.nTabu >= e.params.ResetLimit {
		e.reset()
	}
}

// reset escapes the current local minimum: dedicated model procedure when
// available (§IV-B2), generic RP-% re-randomisation otherwise. Tabu marks
// are cleared either way.
func (e *Engine) reset() {
	e.stats.Resets++
	if rs, hasReset := e.model.(csp.Resetter); hasReset {
		rs.Reset(e.cfg, e.r)
	} else {
		n := len(e.cfg)
		k := n * e.params.ResetPercent / 100
		if k < 2 {
			k = 2
		}
		for t := 0; t < k; t++ {
			i, j := e.r.Intn(n), e.r.Intn(n)
			e.cfg[i], e.cfg[j] = e.cfg[j], e.cfg[i]
		}
		e.model.Bind(e.cfg)
	}
	e.clearTabu()
}

// restart draws a completely fresh random configuration.
func (e *Engine) restart() {
	e.stats.Restarts++
	e.iterInRun = 0
	e.r.PermInto(e.cfg)
	e.model.Bind(e.cfg)
	e.clearTabu()
}

// RestartFrom installs a copy of cfg as the walker's configuration,
// rebinding the model and clearing the tabu/restart state. External
// restart policies use it — notably the cooperative multi-walk, which
// seeds restarts from shared "crossroads" (§VI future work). It panics if
// cfg is not a permutation of the model's size, because a corrupted
// configuration would silently poison all subsequent incremental costs.
func (e *Engine) RestartFrom(cfg []int) {
	if len(cfg) != len(e.cfg) || !csp.IsPermutation(cfg) {
		panic("adaptive: RestartFrom with invalid configuration")
	}
	e.stats.Restarts++
	e.iterInRun = 0
	copy(e.cfg, cfg)
	e.model.Bind(e.cfg)
	e.clearTabu()
	e.solved = e.model.Cost() == 0
}

func (e *Engine) clearTabu() {
	for i := range e.tabuUntil {
		e.tabuUntil[i] = 0
	}
	e.nTabu = 0
}

var _ csp.Restartable = (*Engine)(nil)

// String summarises the walker state for logs.
func (e *Engine) String() string {
	return fmt.Sprintf("adaptive.Engine{iter=%d cost=%d solved=%v}",
		e.stats.Iterations, e.model.Cost(), e.solved)
}
