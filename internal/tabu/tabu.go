// Package tabu implements a classic tabu search over the quadratic swap
// neighborhood — the "tabu search algorithm using the quadratic
// neighborhood implemented in Comet" that Kadioglu & Sellmann used as their
// reference point for the CAP (§IV-C of the paper).
//
// Each iteration scans every pair (i, j), selects the best non-tabu swap
// (with the standard aspiration criterion: a tabu move is allowed if it
// improves on the best cost ever seen), executes it, and marks the moved
// value pair tabu for a randomized tenure. This is deliberately the
// textbook algorithm: it is a *baseline*, and the benchmarks show Adaptive
// Search beating it, as both papers report.
package tabu

import (
	"repro/internal/csp"
	"repro/internal/rng"
)

// Params tune the tabu search; zero fields take defaults.
type Params struct {
	// TenureBase and TenureSpread give each executed move a tabu tenure of
	// TenureBase + Uniform[0, TenureSpread) iterations (defaults 8 and 6).
	TenureBase   int
	TenureSpread int
	// MaxIterations bounds the run; ≤ 0 means unlimited.
	MaxIterations int64
}

// Stats is the unified engine counter block (csp.Stats). Tabu search fills
// Iterations (neighborhood scans), Evaluations (CostIfSwap calls),
// Aspirations (tabu moves accepted by aspiration) and Restarts.
type Stats = csp.Stats

// Solver is a single tabu-search run over a permutation model.
type Solver struct {
	model  csp.Model
	probe  csp.Probe
	params Params
	r      *rng.RNG

	cfg       []int
	tabu      []int64 // tabu[vi*n+vj]: iteration until which swapping values vi < vj is tabu
	bestCost  int
	best      []int
	stall     int64
	stats     Stats
	solved    bool
	exhausted bool
}

// Factory wraps params into a csp.Factory for the multi-walk runner and
// the core facade.
func Factory(params Params) csp.Factory {
	return func(model csp.Model, seed uint64) csp.Engine {
		return New(model, params, seed)
	}
}

// New creates a tabu-search solver with a random initial configuration.
func New(model csp.Model, params Params, seed uint64) *Solver {
	if params.TenureBase <= 0 {
		params.TenureBase = 8
	}
	if params.TenureSpread <= 0 {
		params.TenureSpread = 6
	}
	n := model.Size()
	s := &Solver{
		model:  model,
		params: params,
		r:      rng.New(seed),
		probe:  csp.NewProbe(model, make([]int, n)),
		tabu:   make([]int64, n*n),
	}
	s.cfg = csp.RandomConfiguration(n, s.r)
	model.Bind(s.cfg)
	s.best = csp.Clone(s.cfg)
	s.bestCost = model.Cost()
	s.solved = s.bestCost == 0
	return s
}

// Solved reports whether a zero-cost configuration was reached.
func (s *Solver) Solved() bool { return s.solved }

// Exhausted reports whether MaxIterations was hit without a solution.
func (s *Solver) Exhausted() bool { return s.exhausted }

// Cost returns the current configuration's global cost.
func (s *Solver) Cost() int { return s.model.Cost() }

// Stats returns the solver's counters.
func (s *Solver) Stats() Stats { return s.stats }

// Solution returns a copy of the best configuration found.
func (s *Solver) Solution() []int { return csp.Clone(s.best) }

// Step runs at most quantum neighborhood scans and reports whether the
// solver is solved, returning early on solution or exhaustion — the
// resumability hook the multi-walk runner drives (§V-A).
func (s *Solver) Step(quantum int) bool {
	if s.solved || s.exhausted {
		return s.solved
	}
	for k := 0; k < quantum; k++ {
		if s.params.MaxIterations > 0 && s.stats.Iterations >= s.params.MaxIterations {
			s.exhausted = true
			return false
		}
		if s.iterate() {
			s.solved = true
			return true
		}
	}
	return false
}

// Solve runs until solved or the iteration budget is exhausted.
func (s *Solver) Solve() bool {
	for !s.solved && !s.exhausted {
		s.Step(1024)
	}
	return s.solved
}

// iterate performs one neighborhood scan plus move; it reports whether the
// configuration reached cost zero.
func (s *Solver) iterate() bool {
	m := s.model
	n := len(s.cfg)
	if m.Cost() == 0 {
		copy(s.best, s.cfg)
		return true
	}
	s.stats.Iterations++
	now := s.stats.Iterations

	cur := m.Cost()
	bestI, bestJ, bestMove := -1, -1, int(^uint(0)>>1)
	aspired := false
	for i := 0; i < n-1; i++ {
		deltas := s.probe.Row(i, i+1)
		s.stats.Evaluations += int64(n - 1 - i)
		for j := i + 1; j < n; j++ {
			c := cur + deltas[j]
			// A move no better than the best so far can never be chosen,
			// tabu or not, so only would-be winners pay the tabu lookup.
			if c >= bestMove {
				continue
			}
			vi, vj := s.cfg[i], s.cfg[j]
			if vi > vj {
				vi, vj = vj, vi
			}
			isTabu := s.tabu[vi*n+vj] > now
			// Aspiration: a tabu move that beats the global best is
			// always admissible.
			if isTabu && c >= s.bestCost {
				continue
			}
			bestMove, bestI, bestJ = c, i, j
			aspired = isTabu
		}
	}
	if bestI < 0 {
		// Whole neighborhood tabu: clear and diversify.
		s.diversify()
		return m.Cost() == 0
	}
	vi, vj := s.cfg[bestI], s.cfg[bestJ]
	if vi > vj {
		vi, vj = vj, vi
	}
	s.tabu[vi*n+vj] = now + int64(s.params.TenureBase+s.r.Intn(s.params.TenureSpread))
	if aspired {
		s.stats.Aspirations++
	}
	s.probe.Commit(bestI, bestJ, bestMove-cur)

	if c := m.Cost(); c < s.bestCost {
		s.bestCost = c
		copy(s.best, s.cfg)
		s.stall = 0
	} else {
		s.stall++
	}
	if m.Cost() == 0 {
		copy(s.best, s.cfg)
		return true
	}
	// Long stagnation: random restart keeps the runtime distribution
	// near-memoryless, as for the other solvers.
	if s.stall > int64(50*n*n) {
		s.diversify()
		s.stall = 0
	}
	return false
}

// RestartFrom installs a copy of cfg as the solver's configuration,
// rebinding the model and clearing the tabu/stall state — the hook the
// cooperative multi-walk uses to seed restarts from shared crossroads.
func (s *Solver) RestartFrom(cfg []int) {
	if len(cfg) != len(s.cfg) || !csp.IsPermutation(cfg) {
		panic("tabu: RestartFrom with invalid configuration")
	}
	s.stats.Restarts++
	copy(s.cfg, cfg)
	s.model.Bind(s.cfg)
	clear(s.tabu)
	s.stall = 0
	if c := s.model.Cost(); c < s.bestCost {
		s.bestCost = c
		copy(s.best, s.cfg)
	}
	s.solved = s.model.Cost() == 0
}

var _ csp.Restartable = (*Solver)(nil)

// diversify clears the tabu structure and re-randomises the configuration.
func (s *Solver) diversify() {
	s.stats.Restarts++
	clear(s.tabu)
	s.r.PermInto(s.cfg)
	s.model.Bind(s.cfg)
}
