package core

// Registry routing: any named model in internal/registry is solvable from
// a single declarative run spec — model name + model parameters + solver
// options in one string, e.g.
//
//	costas n=18 walkers=8
//	name=nqueens n=64 method=tabu seed=7
//	magicsquare k=5 method=portfolio portfolio=adaptive,tabu maxiter=100000
//
// ParseRunSpec splits such a string into a resolved registry.Instance and
// an Options value; SolveSpec runs it; SolveInstance is the typed form
// the HTTP service uses after validating its own JSON. The same machinery
// backs BatchJob.Spec (see batch.go), so a mixed-model batch is just a
// list of strings.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/registry"
	"repro/internal/walk"
)

// optionKeyDoc maps each solver-option spec key to a short description —
// one place that defines which keys ParseRunSpec claims for itself; every
// other key belongs to the model and is resolved by the registry.
var optionKeyDoc = map[string]string{
	"method":     "search method (adaptive, tabu, hillclimb, dialectic, portfolio)",
	"portfolio":  "comma-separated method mix for method=portfolio",
	"walkers":    "independent walker count",
	"virtual":    "lockstep virtual walkers (true/false or 1/0)",
	"seed":       "master seed (reproducible runs)",
	"maxiter":    "per-walker iteration budget (0 = unlimited)",
	"checkevery": "termination-probe period / lockstep quantum",
}

// OptionKeys lists the spec keys ParseRunSpec interprets as solver
// options, sorted (for usage messages and API docs).
func OptionKeys() []string {
	keys := make([]string, 0, len(optionKeyDoc))
	for k := range optionKeyDoc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParseRunSpec parses a run spec against the Default registry:
// solver-option keys are applied on top of base, every remaining key is
// a model parameter resolved by the registry (defaults filled, unknown
// keys rejected). base.N and base.Model are ignored — the instance comes
// entirely from the spec.
func ParseRunSpec(spec string, base Options) (registry.Instance, Options, error) {
	return ParseRunSpecIn(registry.Default, spec, base)
}

// ParseRunSpecIn is ParseRunSpec resolving against an explicit registry
// (a service configured with its own catalogue must not fall back to the
// process-wide Default).
func ParseRunSpecIn(reg *registry.Registry, spec string, base Options) (registry.Instance, Options, error) {
	mspec, opts, err := SplitRunSpec(spec, base)
	if err != nil {
		return registry.Instance{}, Options{}, err
	}
	inst, err := reg.Build(mspec)
	if err != nil {
		return registry.Instance{}, Options{}, err
	}
	return inst, opts, nil
}

// SplitRunSpec performs the solver-option half of run-spec parsing
// without consulting any registry: option keys are applied on top of
// base, everything else stays in the returned model spec for whichever
// registry eventually resolves it. Remote execution backends
// (internal/backend) use this to fold a composite spec into wire options
// client-side while the model itself resolves on the server — whose
// catalogue may contain models this process has never registered.
func SplitRunSpec(spec string, base Options) (registry.Spec, Options, error) {
	mspec, extra, err := registry.ParseSpec(spec)
	if err != nil {
		return registry.Spec{}, Options{}, err
	}

	opts := base
	takeInt := func(key string) (int, bool) {
		v, ok := mspec.Params[key]
		if ok {
			delete(mspec.Params, key)
		}
		return v, ok
	}
	takeString := func(key string) (string, bool) {
		v, ok := extra[key]
		if ok {
			delete(extra, key)
		}
		return v, ok
	}
	// A known option key with an unparseable value must blame the VALUE
	// ("walkers=two is not an integer"), not fall through to the
	// unknown-key error below while listing walkers as supported.
	badValue := func(key, val, want string) error {
		return fmt.Errorf("core: %s=%q in spec %q (want %s)", key, val, spec, want)
	}

	if v, ok := takeInt("seed"); ok {
		if v < 0 {
			return registry.Spec{}, Options{}, fmt.Errorf("core: negative seed %d in spec %q", v, spec)
		}
		opts.Seed = uint64(v)
	} else if sv, ok := takeString("seed"); ok {
		// Seeds use the full uint64 range (the -seed flag and the HTTP
		// field both do), so values above MaxInt64 arrive here as
		// strings rather than ints.
		u, err := strconv.ParseUint(sv, 10, 64)
		if err != nil {
			return registry.Spec{}, Options{}, badValue("seed", sv, "an unsigned integer")
		}
		opts.Seed = u
	}
	if v, ok := takeInt("walkers"); ok {
		opts.Walkers = v
	} else if sv, ok := takeString("walkers"); ok {
		return registry.Spec{}, Options{}, badValue("walkers", sv, "an integer")
	}
	if v, ok := takeInt("maxiter"); ok {
		opts.MaxIterations = int64(v)
	} else if sv, ok := takeString("maxiter"); ok {
		return registry.Spec{}, Options{}, badValue("maxiter", sv, "an integer")
	}
	if v, ok := takeInt("checkevery"); ok {
		opts.CheckEvery = v
	} else if sv, ok := takeString("checkevery"); ok {
		return registry.Spec{}, Options{}, badValue("checkevery", sv, "an integer")
	}
	if v, ok := takeInt("virtual"); ok {
		opts.Virtual = v != 0
	} else if v, ok := takeString("virtual"); ok {
		switch v {
		case "true":
			opts.Virtual = true
		case "false":
			opts.Virtual = false
		default:
			return registry.Spec{}, Options{}, badValue("virtual", v, "true/false or 1/0")
		}
	}
	if v, ok := takeString("method"); ok {
		opts.Method = v
	} else if v, ok := takeInt("method"); ok {
		return registry.Spec{}, Options{}, badValue("method", strconv.Itoa(v), "a method name")
	}
	if v, ok := takeString("portfolio"); ok {
		opts.Portfolio = strings.Split(v, ",")
	} else if v, ok := takeInt("portfolio"); ok {
		return registry.Spec{}, Options{}, badValue("portfolio", strconv.Itoa(v), "a comma-separated method list")
	}

	// Anything left in extra is a key the registry cannot take either
	// (model parameters are integers) — reject it here with the full key
	// vocabulary, not deep in the registry with a misleading message.
	if len(extra) > 0 {
		keys := make([]string, 0, len(extra))
		for k := range extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return registry.Spec{}, Options{}, fmt.Errorf(
			"core: unknown option keys %s in spec %q (solver options: %s; model parameters are integers)",
			strings.Join(keys, ", "), spec, strings.Join(OptionKeys(), ", "))
	}

	return mspec, opts, nil
}

// SolveInstance runs the solver described by opts on a resolved registry
// instance. It behaves like SolveModel with two registry upgrades: the
// entry's tuned Adaptive Search parameters are the defaults when
// opts.Params is nil (so `costas n=18` through the registry is the same
// run as core.Solve), and a claimed solution is verified with the
// entry's independent validator — the generalisation of Solve's Costas
// backstop to every model.
func SolveInstance(ctx context.Context, inst registry.Instance, opts Options) (Result, error) {
	if inst.NewModel == nil {
		return Result{}, fmt.Errorf("core: unresolved registry instance")
	}
	if b := opts.Backend; b != nil {
		// Delegate the canonical spec (every declared parameter resolved,
		// alphabetical order) so the backend re-resolves the identical
		// instance; the claimed solution is still verified here with the
		// entry's own validator — the backstop must not depend on where
		// the solve ran.
		opts.Backend = nil
		res, err := b.SolveSpec(ctx, inst.Spec.String(), opts)
		if err != nil {
			return res, err
		}
		if res.Solved && !inst.Valid(res.Array) {
			return res, fmt.Errorf("core: backend returned a claimed solution %v that does not solve %s", res.Array, inst.Spec)
		}
		return res, nil
	}
	defaults := adaptive.DefaultParams()
	if tuned, ok := inst.TunedParams(); ok {
		defaults = tuned
	}
	res, err := solveWith(ctx, inst.NewModel, opts, defaults)
	if err != nil {
		return res, err
	}
	if res.Solved && !inst.Valid(res.Array) {
		return res, fmt.Errorf("core: internal error — claimed solution %v does not solve %s", res.Array, inst.Spec)
	}
	return res, nil
}

// WalkConfigFor resolves opts into the multi-walk configuration for a
// registry instance, applying the instance's tuned Adaptive Search
// parameters as the defaults exactly as SolveInstance does. Layers that
// drive walker engines themselves instead of calling SolveInstance — the
// campaign shard runner builds, checkpoints and re-arms engines across
// process restarts — use this to obtain the identical factory and seed
// derivation a direct solve would have used.
func WalkConfigFor(inst registry.Instance, opts Options) (walk.Config, error) {
	if inst.NewModel == nil {
		return walk.Config{}, fmt.Errorf("core: unresolved registry instance")
	}
	defaults := adaptive.DefaultParams()
	if tuned, ok := inst.TunedParams(); ok {
		defaults = tuned
	}
	return walkConfig(opts, defaults)
}

// SolveSpec parses a run spec and solves it; base supplies the solver
// options the spec does not mention (a CLI's flag values, a server's
// per-request defaults).
func SolveSpec(ctx context.Context, spec string, base Options) (Result, error) {
	inst, opts, err := ParseRunSpec(spec, base)
	if err != nil {
		return Result{}, err
	}
	return SolveInstance(ctx, inst, opts)
}
