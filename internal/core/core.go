// Package core is the public face of the library: one-call solving of
// Costas Array Problem instances — or any permutation CSP implementing
// csp.Model — with any of the repository's search methods, sequentially or
// by independent parallel multi-walk.
//
// It wires together the substrates — the CSP models (internal/costas,
// internal/models/*), the engines (internal/adaptive, internal/tabu,
// internal/hillclimb, internal/dialectic) and the multi-walk runner
// (internal/walk) — behind a small options/result API that the examples,
// CLIs and benchmark harnesses all share.
//
// Quickstart:
//
//	res, err := core.Solve(context.Background(), core.Options{N: 18})
//	if err != nil { ... }
//	fmt.Println(res.Array)   // a Costas array of order 18
//
// Parallel (all cores), with a baseline method:
//
//	res, _ := core.Solve(ctx, core.Options{N: 20, Method: "tabu", Walkers: runtime.GOMAXPROCS(0)})
//
// Portfolio mode — one run mixing all four methods across walkers:
//
//	res, _ := core.Solve(ctx, core.Options{N: 18, Method: "portfolio", Walkers: 8})
//
// Simulated cluster (the paper's 256-core HA8000 runs, on a laptop):
//
//	res, _ := core.Solve(ctx, core.Options{N: 20, Walkers: 256, Virtual: true})
//	seconds := cluster.HA8000.Seconds(res.Iterations)
//
// Any csp.Model solves through the same machinery:
//
//	res, _ := core.SolveModel(ctx, func() csp.Model { return nqueens.New(100) },
//	    core.Options{Method: "adaptive", Walkers: 4})
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/dialectic"
	"repro/internal/hillclimb"
	"repro/internal/race"
	"repro/internal/tabu"
	"repro/internal/walk"
)

// Backend abstracts WHERE a solve executes: in this process, on a remote
// solverd node, or sharded across a whole fleet. internal/backend provides
// the implementations (Local, Remote, Pool); Options.Backend and
// BatchOptions.Backend select one. The interface lives here — not in
// internal/backend — so the facade can delegate without an import cycle:
// backend implementations import core for its types, core only holds the
// two-method contract.
//
// A Backend works on registry run specs (the one instance description
// that serializes across a wire) and on spec-shaped batch jobs; model
// closures (SolveModel, BatchJob.NewModel) are process-local by nature
// and cannot be routed through a Backend.
type Backend interface {
	// SolveSpec solves one registry run-spec instance (e.g. "costas n=18")
	// with the given solver options (whose Backend field is ignored).
	SolveSpec(ctx context.Context, spec string, opts Options) (Result, error)
	// SolveBatch solves a batch of spec-shaped jobs (BatchJob.Spec set, or
	// Options.N-only CAP jobs, which every backend canonicalizes to
	// "costas n=N").
	SolveBatch(ctx context.Context, jobs []BatchJob, opts BatchOptions) (BatchResult, error)
}

// Method names accepted by Options.Method (plus their aliases).
const (
	MethodAdaptive  = "adaptive"
	MethodTabu      = "tabu"
	MethodHillclimb = "hillclimb"
	MethodDialectic = "dialectic"
	MethodPortfolio = "portfolio"
	MethodRacing    = "racing"
)

// Methods lists the canonical method names, the meta-methods (portfolio,
// racing) last.
func Methods() []string {
	return []string{MethodAdaptive, MethodTabu, MethodHillclimb, MethodDialectic, MethodPortfolio, MethodRacing}
}

// Options selects the instance, the search method and the execution mode.
// The zero value of every field except N has a sensible default.
type Options struct {
	// N is the Costas array order to solve (required for Solve, ≥ 1;
	// ignored by SolveModel, which takes the size from the model).
	N int

	// Method selects the search method: "adaptive" (default; alias "as"),
	// "tabu", "hillclimb" (alias "hc"), "dialectic" (alias "ds"),
	// "portfolio" to mix methods statically across walkers (see
	// Portfolio), or "racing" to let the internal/race allocator
	// reallocate walkers toward the method winning on this instance at
	// fixed iteration-window boundaries.
	Method string

	// Portfolio lists the methods cycled across walkers when Method is
	// "portfolio", and the racing arms when Method is "racing". Empty
	// means all four methods in the canonical order.
	Portfolio []string

	// Walkers is the number of independent walkers; 0 or 1 solves
	// sequentially with a single engine.
	Walkers int

	// Virtual, when true with Walkers > 1, advances walkers in lockstep
	// virtual time instead of real goroutines — the mode that reproduces
	// the paper's large-core-count experiments exactly on few cores.
	// Cancellation works in both modes: real-mode walkers probe ctx every
	// CheckEvery iterations, and the virtual scheduler probes it between
	// lockstep rounds; either way Solve returns a partial unsolved Result.
	Virtual bool

	// Seed is the master seed; runs with equal seeds are reproducible
	// (bit-identical in sequential and virtual modes). 0 means seed 1 —
	// explicitness beats a hidden clock, and reproducibility is a design
	// goal of the whole repository.
	Seed uint64

	// Params overrides the Adaptive Search engine parameters (used by the
	// "adaptive" method and adaptive portfolio walkers); nil uses the
	// tuned CAP set (costas.TunedParams) in Solve and adaptive defaults
	// in SolveModel.
	Params *adaptive.Params

	// Model overrides the CAP model options (error function, Chang bound,
	// reset procedure); the zero value is the tuned model. Solve only.
	Model costas.Options

	// CheckEvery is the termination-probe period / lockstep quantum c;
	// 0 uses walk.DefaultCheckEvery.
	CheckEvery int

	// MaxIterations bounds each walker's iteration count. Precedence: a
	// non-zero MaxIterations overrides any budget carried by Params; when
	// it is 0 a caller-supplied Params keeps its own MaxIterations
	// (0 in both places means run until solved). For the dialectic method
	// the budget counts cost evaluations — its natural work unit — not
	// rounds.
	MaxIterations int64

	// Backend selects where the solve executes; nil means in this process
	// (the historical behaviour). With a Backend set, Solve and
	// SolveInstance delegate the canonical run spec to it — a
	// backend.Remote submits to a solverd node, a backend.Pool shards
	// multi-walk across a fleet. Process-local knobs that do not
	// serialize (Params, a non-zero Model) are rejected by remote
	// backends rather than silently dropped; SolveModel rejects any
	// Backend because model closures cannot be shipped.
	Backend Backend
}

// Result reports a solve outcome.
type Result struct {
	// Solved tells whether Array holds a zero-cost configuration (for
	// Solve, a verified Costas array).
	Solved bool
	// Array is the solution as a 0-based permutation (column → row).
	Array []int
	// Winner is the index of the successful walker (0 when sequential,
	// −1 when unsolved).
	Winner int
	// Iterations is the winning walker's iteration count — the virtual
	// makespan of the run (what the paper's parallel timings measure).
	Iterations int64
	// TotalIterations sums all walkers' iterations (the parallel work).
	TotalIterations int64
	// WallTime is the real elapsed time.
	WallTime time.Duration
	// Cancelled reports that the run was stopped by ctx (cancellation or
	// deadline) while walkers were still live, rather than solving or
	// exhausting its budgets; the Result is partial.
	Cancelled bool
	// Stats holds per-walker engine counters.
	Stats []csp.Stats
	// MethodStats attributes the run's work to canonical method names:
	// per-walker totals for the static modes, windowed racing attribution
	// (the allocator's per-arm csp.Stats deltas) for method=racing. The
	// /metrics endpoint aggregates these per process.
	MethodStats map[string]csp.Stats
	// WinnerMethod is the canonical method the winning walker was running
	// when it solved ("" while unsolved).
	WinnerMethod string
}

// normalizeMethod maps a method name or alias to its canonical name.
func normalizeMethod(method string) (string, error) {
	switch method {
	case "", "as", MethodAdaptive:
		return MethodAdaptive, nil
	case MethodTabu:
		return MethodTabu, nil
	case "hc", MethodHillclimb:
		return MethodHillclimb, nil
	case "ds", MethodDialectic:
		return MethodDialectic, nil
	case MethodPortfolio:
		return MethodPortfolio, nil
	case "race", MethodRacing:
		return MethodRacing, nil
	default:
		return "", fmt.Errorf("core: unknown method %q (want adaptive, tabu, hillclimb, dialectic, portfolio or racing)", method)
	}
}

// methodFactory builds the engine factory for one canonical method name.
// adaptiveParams carries the resolved Adaptive Search parameters; the
// baseline methods use their own defaults with opts.MaxIterations applied.
func methodFactory(method string, adaptiveParams adaptive.Params, opts Options) (csp.Factory, error) {
	switch method {
	case MethodAdaptive:
		return adaptive.Factory(adaptiveParams), nil
	case MethodTabu:
		return tabu.Factory(tabu.Params{MaxIterations: opts.MaxIterations}), nil
	case MethodHillclimb:
		return hillclimb.Factory(hillclimb.Params{MaxIterations: opts.MaxIterations}), nil
	case MethodDialectic:
		// Dialectic's budget counts cost evaluations, its natural work
		// unit (Table II) — one dialectic round spans hundreds of them,
		// so a round-denominated bound would be orders weaker.
		return dialectic.Factory(dialectic.Params{MaxEvaluations: opts.MaxIterations}), nil
	default:
		return nil, fmt.Errorf("core: method %q has no engine factory", method)
	}
}

// runPlan is a resolved walk configuration plus the method bookkeeping
// the facade layers on top: the canonical method name per portfolio slot
// (for per-method stats attribution) and, for method=racing, the racing
// controller driving the walk's Allocator hook.
type runPlan struct {
	cfg walk.Config
	// methods holds the canonical method per Portfolio slot (the racing
	// arm names), or exactly one entry for single-method runs. Walker i
	// runs methods[i%len(methods)] in the static modes.
	methods []string
	// ctrl is the racing controller for method=racing, nil otherwise.
	ctrl *race.Controller
}

// walkerMethod returns the canonical method walker i started on.
func (p runPlan) walkerMethod(i int) string {
	return p.methods[i%len(p.methods)]
}

// buildPlan resolves opts into the multi-walk run plan: canonical
// method(s), engine factory (or portfolio/arm slice), racing controller
// and run parameters. adaptiveDefaults supplies the Adaptive Search
// parameter set used when opts.Params is nil (CAP-tuned in Solve, engine
// defaults in SolveModel, registry-tuned in SolveInstance).
func buildPlan(opts Options, adaptiveDefaults adaptive.Params) (runPlan, error) {
	if opts.Walkers < 0 {
		return runPlan{}, fmt.Errorf("core: negative walker count %d", opts.Walkers)
	}
	method, err := normalizeMethod(opts.Method)
	if err != nil {
		return runPlan{}, err
	}

	params := adaptiveDefaults
	if opts.Params != nil {
		params = *opts.Params
	}
	// Precedence (documented on Options.MaxIterations): a non-zero
	// Options.MaxIterations wins; otherwise a caller-supplied Params keeps
	// its own budget.
	if opts.MaxIterations != 0 {
		params.MaxIterations = opts.MaxIterations
	}

	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	plan := runPlan{cfg: walk.Config{
		Walkers:    opts.Walkers,
		CheckEvery: opts.CheckEvery,
		MasterSeed: seed,
	}}

	multi := method == MethodPortfolio || method == MethodRacing
	if !multi && len(opts.Portfolio) > 0 {
		return runPlan{}, fmt.Errorf("core: Options.Portfolio set but Method is %q (want \"portfolio\" or \"racing\")", method)
	}
	if multi {
		names := opts.Portfolio
		if len(names) == 0 {
			names = []string{MethodAdaptive, MethodTabu, MethodHillclimb, MethodDialectic}
		}
		for _, name := range names {
			canonical, err := normalizeMethod(name)
			if err != nil {
				return runPlan{}, err
			}
			if canonical == MethodPortfolio || canonical == MethodRacing {
				return runPlan{}, fmt.Errorf("core: %s cannot nest %q", method, name)
			}
			f, err := methodFactory(canonical, params, opts)
			if err != nil {
				return runPlan{}, err
			}
			plan.cfg.Portfolio = append(plan.cfg.Portfolio, f)
			plan.methods = append(plan.methods, canonical)
		}
		if method == MethodRacing {
			plan.ctrl = race.NewController(plan.methods, opts.Walkers)
			plan.cfg.Allocator = plan.ctrl
		}
		return plan, nil
	}

	plan.cfg.Factory, err = methodFactory(method, params, opts)
	plan.methods = []string{method}
	return plan, err
}

// walkConfig resolves opts into the multi-walk configuration alone; the
// campaign layer (core.WalkConfigFor) drives engines itself and only
// needs the factories and seed derivation.
func walkConfig(opts Options, adaptiveDefaults adaptive.Params) (walk.Config, error) {
	plan, err := buildPlan(opts, adaptiveDefaults)
	return plan.cfg, err
}

// Validate reports whether opts describes a runnable solver configuration
// (known method, coherent portfolio, non-negative walker count) without
// running anything. Request front ends (internal/service) use it to turn
// bad options into client errors before a job is enqueued; N is not
// checked — instance selection is the caller's concern (registry specs
// carry their own parameter validation).
func (o Options) Validate() error {
	_, err := walkConfig(o, adaptive.DefaultParams())
	return err
}

// SolveModel runs the solver described by opts on any permutation CSP:
// newModel must return a fresh, independent model instance per call (one
// per walker). Options.N and Options.Model are ignored — the instance is
// whatever newModel builds. A nil Options.Params uses adaptive defaults
// with an automatic restart limit, not the CAP-tuned set.
//
// The result's Array is the winning walker's configuration; SolveModel
// performs no problem-specific verification (Solve layers the Costas check
// on top), but a solved engine's configuration has model cost zero by
// construction.
func SolveModel(ctx context.Context, newModel func() csp.Model, opts Options) (Result, error) {
	if newModel == nil {
		return Result{}, fmt.Errorf("core: nil model factory")
	}
	if opts.Backend != nil {
		return Result{}, fmt.Errorf("core: SolveModel cannot route through a backend (model closures are process-local; use a registry spec)")
	}
	return solveWith(ctx, newModel, opts, adaptive.DefaultParams())
}

// solveWith is the shared run path of Solve and SolveModel: resolve the
// run plan, pick the execution mode, and repackage the result with its
// per-method attribution.
func solveWith(ctx context.Context, newModel func() csp.Model, opts Options, adaptiveDefaults adaptive.Params) (Result, error) {
	plan, err := buildPlan(opts, adaptiveDefaults)
	if err != nil {
		return Result{}, err
	}
	if plan.ctrl != nil {
		plan.ctrl.Activate()
		defer plan.ctrl.Close()
	}

	var wres walk.Result
	if opts.Virtual && opts.Walkers > 1 {
		wres = walk.Virtual(ctx, newModel, plan.cfg, 0)
	} else {
		wres = walk.Parallel(ctx, newModel, plan.cfg)
	}

	res := Result{
		Solved:          wres.Solved,
		Array:           wres.Solution,
		Winner:          wres.Winner,
		Iterations:      wres.WinnerIterations,
		TotalIterations: wres.TotalIterations,
		WallTime:        wres.WallTime,
		Cancelled:       wres.Cancelled,
		Stats:           wres.Stats,
	}
	if plan.ctrl != nil {
		// Racing: the allocator's windowed attribution is exact — walkers
		// change methods mid-run, so per-walker totals cannot be used.
		res.MethodStats = plan.ctrl.ArmStats()
		if res.Solved {
			if m, ok := plan.ctrl.ArmOf(wres.Winner); ok {
				res.WinnerMethod = m
			}
		}
	} else {
		res.MethodStats = make(map[string]csp.Stats, len(plan.methods))
		for _, m := range plan.methods {
			res.MethodStats[m] = csp.Stats{}
		}
		for i, st := range wres.Stats {
			m := plan.walkerMethod(i)
			res.MethodStats[m] = res.MethodStats[m].Add(st)
		}
		if res.Solved {
			res.WinnerMethod = plan.walkerMethod(wres.Winner)
		}
	}
	return res, nil
}

// Solve runs the solver described by opts on the Costas Array Problem of
// order opts.N. It returns an error for invalid options; an unsolved
// Result (within iteration budgets) is not an error.
func Solve(ctx context.Context, opts Options) (Result, error) {
	if opts.N < 1 {
		return Result{}, fmt.Errorf("core: invalid order N=%d", opts.N)
	}
	if b := opts.Backend; b != nil {
		// Delegate the canonical CAP run spec. Non-default model options do
		// not serialize into a spec (the registry route always builds the
		// tuned model), so shipping them would silently solve a different
		// instance — reject instead.
		if opts.Model != (costas.Options{}) {
			return Result{}, fmt.Errorf("core: non-default costas model options cannot route through a backend")
		}
		spec := fmt.Sprintf("costas n=%d", opts.N)
		opts.Backend, opts.N = nil, 0
		res, err := b.SolveSpec(ctx, spec, opts)
		if err != nil {
			return res, err
		}
		if res.Solved && !costas.IsCostas(res.Array) {
			return res, fmt.Errorf("core: backend returned a claimed solution %v that is not a Costas array", res.Array)
		}
		return res, nil
	}
	newModel := func() csp.Model { return costas.New(opts.N, opts.Model) }
	res, err := solveWith(ctx, newModel, opts, costas.TunedParams(opts.N))
	if err != nil {
		return res, err
	}
	if res.Solved && !costas.IsCostas(res.Array) {
		// Cannot happen unless a model/engine invariant is broken; fail
		// loudly rather than hand the caller a bad array.
		return res, fmt.Errorf("core: internal error — claimed solution %v is not a Costas array", res.Array)
	}
	return res, nil
}

// Verify reports whether perm is a Costas array (a re-export of the model
// package's verifier so facade users need only one import).
func Verify(perm []int) bool { return costas.IsCostas(perm) }

// Construct returns a Costas array of order n built by a classical
// algebraic construction (Welch or Lempel–Golomb), or nil if no
// construction covers n — the gaps are exactly why search matters (§II).
func Construct(n int) []int { return costas.ConstructAny(n) }
