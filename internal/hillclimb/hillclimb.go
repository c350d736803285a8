// Package hillclimb implements a random-restart stochastic hill climber in
// the spirit of the method Rickard & Healy studied for the CAP (§II of the
// paper cites their 2006 conclusion that such searches are "unlikely to
// succeed for n > 26").
//
// Each walk starts from a random permutation and repeatedly takes a
// first-improvement swap found by random sampling of the neighborhood; when
// a sampling budget passes with no improvement the walk restarts — exactly
// the "too simple restart policy" the paper contrasts Adaptive Search's
// guided errors and dedicated reset against. It is included as the weakest
// baseline in the solver comparison benchmarks.
package hillclimb

import (
	"repro/internal/csp"
	"repro/internal/rng"
)

// Params tune the hill climber; zero fields take defaults.
type Params struct {
	// SampleFactor scales the number of random neighbor samples tried
	// before declaring a local optimum (samples = SampleFactor·n²,
	// default 2).
	SampleFactor int
	// MaxIterations bounds the total number of sampled moves; ≤ 0 means
	// unlimited.
	MaxIterations int64
}

// Stats is the unified engine counter block (csp.Stats). The hill climber
// fills Iterations (sampled moves), Moves (accepted improving moves) and
// Restarts.
type Stats = csp.Stats

// Solver is a random-restart first-improvement hill climber.
//
// Its move rule samples ONE random pair per iteration, so it probes with
// csp.Probe.Delta rather than a whole Row, and needs no row scratch.
type Solver struct {
	model  csp.Model
	probe  csp.Probe
	params Params
	r      *rng.RNG

	cfg          []int
	sinceImprove int64
	stats        Stats
	solved       bool
	exhausted    bool
}

// Factory wraps params into a csp.Factory for the multi-walk runner and
// the core facade.
func Factory(params Params) csp.Factory {
	return func(model csp.Model, seed uint64) csp.Engine {
		return New(model, params, seed)
	}
}

// New creates a hill climber with a random initial configuration.
func New(model csp.Model, params Params, seed uint64) *Solver {
	if params.SampleFactor <= 0 {
		params.SampleFactor = 2
	}
	s := &Solver{model: model, probe: csp.NewProbe(model, nil), params: params, r: rng.New(seed)}
	s.cfg = csp.RandomConfiguration(model.Size(), s.r)
	model.Bind(s.cfg)
	s.solved = model.Cost() == 0
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

// Solution returns a copy of the current configuration.
func (s *Solver) Solution() []int { return csp.Clone(s.cfg) }

// Step runs at most quantum sampled moves and reports whether the solver
// is solved, returning early on solution or exhaustion — the resumability
// hook the multi-walk runner drives (§V-A).
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

// Solve runs until solved or the sampling budget is exhausted.
func (s *Solver) Solve() bool {
	for !s.solved && !s.exhausted {
		s.Step(4096)
	}
	return s.solved
}

// iterate samples one candidate move; it reports whether the configuration
// reached cost zero.
func (s *Solver) iterate() bool {
	m := s.model
	n := len(s.cfg)
	if m.Cost() == 0 {
		return true
	}
	budget := int64(s.params.SampleFactor) * int64(n) * int64(n)
	s.stats.Iterations++
	i, j := s.r.Intn(n), s.r.Intn(n)
	if i == j {
		return false
	}
	if d := s.probe.Delta(i, j); d < 0 {
		s.probe.Commit(i, j, d)
		s.stats.Moves++
		s.sinceImprove = 0
		return m.Cost() == 0
	}
	s.sinceImprove++
	if s.sinceImprove >= budget {
		s.stats.Restarts++
		s.r.PermInto(s.cfg)
		m.Bind(s.cfg)
		s.sinceImprove = 0
		return m.Cost() == 0
	}
	return false
}

// RestartFrom installs a copy of cfg as the climber's configuration,
// rebinding the model and clearing the stall counter — the
// csp.Restartable hook behind racing migration and campaign resume.
func (s *Solver) RestartFrom(cfg []int) {
	if len(cfg) != len(s.cfg) || !csp.IsPermutation(cfg) {
		panic("hillclimb: RestartFrom with invalid configuration")
	}
	s.stats.Restarts++
	copy(s.cfg, cfg)
	s.model.Bind(s.cfg)
	s.sinceImprove = 0
	s.solved = s.model.Cost() == 0
}

var _ csp.Restartable = (*Solver)(nil)
