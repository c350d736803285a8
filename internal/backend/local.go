package backend

import (
	"context"
	"runtime"

	"repro/internal/core"
)

// Local executes in this process through the facade's registry route —
// the same code path core.SolveSpec and core.SolveBatch take, so a solve
// routed through a Local backend is bit-identical to not having a
// backend at all. It is the unit other backends are measured against
// (the parity tests pit Pool and Remote results against Local's) and the
// building block of in-process test clusters.
type Local struct{}

// NewLocal returns a Local backend.
func NewLocal() *Local { return &Local{} }

// SolveSpec resolves and solves the run spec in-process. Spec keys
// override opts, exactly as in core.SolveSpec.
func (l *Local) SolveSpec(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
	opts.Backend = nil // a backend terminates routing; never recurse
	inst, ropts, err := core.ParseRunSpec(spec, opts)
	if err != nil {
		return core.Result{}, err
	}
	return core.SolveInstance(ctx, inst, ropts)
}

// SolveBatch runs the batch on the in-process worker pool.
func (l *Local) SolveBatch(ctx context.Context, jobs []core.BatchJob, opts core.BatchOptions) (core.BatchResult, error) {
	opts.Backend = nil
	return core.SolveBatch(ctx, jobs, opts)
}

// Healthy always reports ready: the process answering is the liveness.
func (l *Local) Healthy(ctx context.Context) error { return ctx.Err() }

// Capacity reports GOMAXPROCS.
func (l *Local) Capacity() int { return runtime.GOMAXPROCS(0) }

func (l *Local) Name() string { return "local" }
