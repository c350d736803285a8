// Package dialectic implements Dialectic Search (Kadioglu & Sellmann,
// CP 2009), the local-search metaheuristic the paper compares Adaptive
// Search against in Table II.
//
// Dialectic Search frames search as a Hegelian dialectic:
//
//   - the *thesis* is the current locally-optimal solution;
//   - the *antithesis* is a randomized perturbation of it;
//   - the *synthesis* walks greedily from thesis towards antithesis,
//     keeping the best configuration seen on the path, and then descends
//     to a local minimum.
//
// If the synthesis improves on the thesis it becomes the new thesis;
// after too many failed dialectic rounds the search restarts from a fresh
// random configuration. The permutation specialisation here follows the
// CAP experiments of the original paper: greedy descent over the quadratic
// swap neighborhood and path-following by transposition repair.
package dialectic

import (
	"repro/internal/csp"
	"repro/internal/rng"
)

// Params tune Dialectic Search. Zero value fields are replaced by defaults
// matching the original paper's setup.
type Params struct {
	// NoImprovementLimit is the number of consecutive dialectic rounds
	// without improvement tolerated before a restart (default 20).
	NoImprovementLimit int
	// MaxEvaluations bounds the total number of configuration-cost
	// evaluations; ≤ 0 means unlimited. Evaluations are the solver's
	// natural work unit and what Table II's time ratio tracks.
	MaxEvaluations int64
	// MaxIterations bounds the number of dialectic rounds (the engine
	// iteration unit the multi-walk runner steps in); ≤ 0 means unlimited.
	MaxIterations int64
}

// Stats is the unified engine counter block (csp.Stats). Dialectic Search
// fills Iterations (= Rounds, the engine's step unit), Evaluations (swap
// probes, path-point scores and rebinds, the Table II work unit), Rounds,
// Descents and Restarts.
type Stats = csp.Stats

// Solver runs Dialectic Search on a permutation model.
type Solver struct {
	model  csp.Model
	probe  csp.Probe
	params Params
	r      *rng.RNG

	cfg       []int
	best      []int
	stats     Stats
	solved    bool
	exhausted bool

	descended bool // initial thesis descent performed
	noImp     int  // consecutive rounds without improvement

	anti    []int
	synth   []int
	scratch []int
	pos     []int // value→position index for synthesize's transposition repair
}

// Factory wraps params into a csp.Factory for the multi-walk runner and
// the core facade.
func Factory(params Params) csp.Factory {
	return func(model csp.Model, seed uint64) csp.Engine {
		return New(model, params, seed)
	}
}

// New creates a Dialectic Search solver with an initial random thesis.
func New(model csp.Model, params Params, seed uint64) *Solver {
	if params.NoImprovementLimit <= 0 {
		params.NoImprovementLimit = 20
	}
	n := model.Size()
	s := &Solver{
		model:   model,
		probe:   csp.NewProbe(model, make([]int, n)),
		params:  params,
		r:       rng.New(seed),
		anti:    make([]int, n),
		synth:   make([]int, n),
		scratch: make([]int, n),
		pos:     make([]int, n),
	}
	s.cfg = csp.RandomConfiguration(n, s.r)
	model.Bind(s.cfg)
	s.best = csp.Clone(s.cfg)
	s.solved = model.Cost() == 0
	return s
}

// Solved reports whether a zero-cost configuration was reached.
func (s *Solver) Solved() bool { return s.solved }

// Exhausted reports whether an evaluation or round budget was hit without
// a solution.
func (s *Solver) Exhausted() bool { return s.exhausted }

// Cost returns the current configuration's global cost.
func (s *Solver) Cost() int { return s.model.Cost() }

// Stats returns the solver's work counters.
func (s *Solver) Stats() Stats { return s.stats }

// Solution returns a copy of the best configuration found.
func (s *Solver) Solution() []int { return csp.Clone(s.best) }

// budget reports whether the evaluation or round budget is exhausted.
func (s *Solver) budget() bool {
	return (s.params.MaxEvaluations > 0 && s.stats.Evaluations >= s.params.MaxEvaluations) ||
		(s.params.MaxIterations > 0 && s.stats.Iterations >= s.params.MaxIterations)
}

// Step runs at most quantum dialectic rounds (the engine's iteration unit;
// each round is a thesis→antithesis→synthesis cycle, so one round is far
// heavier than one adaptive-search repair iteration) and reports whether
// the solver is solved, returning early on solution or exhaustion. The
// initial greedy descent to the first thesis happens on the first call.
func (s *Solver) Step(quantum int) bool {
	if s.solved || s.exhausted {
		return s.solved
	}
	if !s.descended {
		// Initial thesis: greedy local minimum.
		s.descended = true
		s.descend()
		if s.model.Cost() == 0 {
			s.finish()
			return true
		}
	}
	for k := 0; k < quantum; k++ {
		if s.budget() {
			s.exhausted = true
			return false
		}
		if s.iterate() {
			s.finish()
			return true
		}
	}
	return false
}

// Solve runs the dialectic loop until solved or the budget runs out,
// reporting success.
func (s *Solver) Solve() bool {
	for !s.solved && !s.exhausted {
		s.Step(64)
	}
	return s.solved
}

// iterate performs one dialectic round; it reports whether the
// configuration reached cost zero.
func (s *Solver) iterate() bool {
	m := s.model
	s.stats.Iterations++
	s.stats.Rounds++
	thesisCost := m.Cost()

	// Antithesis: perturb a random segment of the thesis.
	s.makeAntithesis()

	// Synthesis: greedy path from thesis to antithesis.
	synthCost := s.synthesize()

	if synthCost < thesisCost {
		copy(s.cfg, s.synth)
		m.Bind(s.cfg)
		s.stats.Evaluations++
		s.descend()
		s.noImp = 0
	} else {
		s.noImp++
		if s.noImp >= s.params.NoImprovementLimit {
			s.restart()
			s.noImp = 0
		}
	}
	return m.Cost() == 0
}

// RestartFrom installs a copy of cfg as the solver's thesis, rebinding the
// model and clearing the round state; the next Step descends it to a local
// minimum exactly as the initial thesis — the hook the cooperative
// multi-walk uses to seed restarts from shared crossroads.
func (s *Solver) RestartFrom(cfg []int) {
	if len(cfg) != len(s.cfg) || !csp.IsPermutation(cfg) {
		panic("dialectic: RestartFrom with invalid configuration")
	}
	s.stats.Restarts++
	copy(s.cfg, cfg)
	s.model.Bind(s.cfg)
	s.noImp = 0
	s.descended = false
	s.solved = s.model.Cost() == 0
	if s.solved {
		copy(s.best, s.cfg)
	}
}

var _ csp.Restartable = (*Solver)(nil)

func (s *Solver) finish() {
	s.solved = true
	copy(s.best, s.cfg)
}

// descend performs best-improvement descent over the full quadratic swap
// neighborhood until a local minimum — the "greedy" step of the paper.
func (s *Solver) descend() {
	m := s.model
	n := len(s.cfg)
	s.stats.Descents++
	for {
		cur := m.Cost()
		if cur == 0 {
			return
		}
		bestI, bestJ, bestCost := -1, -1, cur
		for i := 0; i < n-1; i++ {
			deltas := s.probe.Row(i, i+1)
			for j := i + 1; j < n; j++ {
				c := cur + deltas[j]
				s.stats.Evaluations++
				if c < bestCost {
					bestCost, bestI, bestJ = c, i, j
				}
			}
		}
		if bestI < 0 {
			return // local minimum
		}
		s.probe.Commit(bestI, bestJ, bestCost-cur)
		if s.budget() {
			return
		}
	}
}

// makeAntithesis copies the thesis and shuffles a random window of at least
// a third of the variables.
func (s *Solver) makeAntithesis() {
	n := len(s.cfg)
	copy(s.anti, s.cfg)
	w := n/3 + 1 + s.r.Intn(n/3+1) // window length in [n/3+1, 2n/3+1]
	if w > n {
		w = n
	}
	start := s.r.Intn(n - w + 1)
	s.r.Shuffle(w, func(i, j int) {
		s.anti[start+i], s.anti[start+j] = s.anti[start+j], s.anti[start+i]
	})
}

// synthesize walks from the thesis to the antithesis by fixing one position
// per step (transposition repair), evaluating every intermediate
// configuration, and leaves the best point of the path in s.synth,
// returning its cost.
func (s *Solver) synthesize() int {
	m := s.model
	n := len(s.cfg)
	copy(s.scratch, s.cfg)

	bestCost := int(^uint(0) >> 1)
	// Position of each value in scratch, for O(1) transposition repair.
	pos := s.pos
	for i, v := range s.scratch {
		pos[v] = i
	}
	// Score path points through the probe: a ScanModel keeps the thesis
	// bound, a plain model is rebound to each point and restored below.
	rebound := false
	for i := 0; i < n; i++ {
		if s.scratch[i] == s.anti[i] {
			continue
		}
		j := pos[s.anti[i]]
		// Swap positions i and j in scratch.
		pos[s.scratch[i]], pos[s.scratch[j]] = j, i
		s.scratch[i], s.scratch[j] = s.scratch[j], s.scratch[i]
		c, rb := s.probe.CostOf(s.scratch)
		rebound = rebound || rb
		s.stats.Evaluations++
		if c < bestCost {
			bestCost = c
			copy(s.synth, s.scratch)
		}
		if s.budget() {
			break
		}
	}
	// Restore the thesis binding. The restore counts as an evaluation on
	// both tiers, so Table II's evaluation column and MaxEvaluations
	// budgets do not depend on the model's tier.
	if rebound {
		m.Bind(s.cfg)
	}
	s.stats.Evaluations++
	if bestCost == int(^uint(0)>>1) {
		// Antithesis equalled thesis; degenerate, return thesis itself.
		copy(s.synth, s.cfg)
		return m.Cost()
	}
	return bestCost
}

// restart replaces the thesis with a fresh random local minimum.
func (s *Solver) restart() {
	s.stats.Restarts++
	s.r.PermInto(s.cfg)
	s.model.Bind(s.cfg)
	s.stats.Evaluations++
	s.descend()
}
