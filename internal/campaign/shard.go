package campaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/registry"
	"repro/internal/walk"
)

// ShardRunner drives one shard of a campaign: Walkers engines advanced
// in lockstep, checkpointed every SnapshotIters iterations.
//
// # Determinism contract (bit-identical resume)
//
// The engines do not expose RNG or tabu state, so a checkpoint cannot
// capture a walker mid-stream. Instead the runner makes every epoch a
// pure function of the checkpoint that opens it:
//
//   - walker seeds are derived per epoch from (MasterSeed, epoch), so
//     epoch e's RNG streams do not depend on how epoch e−1 was driven;
//   - at every epoch boundary the runner REBUILDS its own engines from
//     the checkpoint it just emitted — fresh engines with epoch-(e+1)
//     seeds, re-armed via csp.Restartable.RestartFrom with the persisted
//     configurations — exactly what a process restarted from that
//     checkpoint would do.
//
// The surviving walk and the recovered walk therefore follow one
// trajectory: killing a worker or the coordinator loses at most the
// partial epoch in flight (≤ one snapshot interval), never divergence.
// The round-trip test in shard_test.go holds this bit-for-bit.
//
// Within an epoch the walkers advance strictly in lockstep (engine 0
// steps a quantum, then engine 1, …), so the winning (round, walker)
// pair — and thus the reported Solution — is deterministic too.
type ShardRunner struct {
	spec   Spec
	shard  int
	method string // the shard's arm of Spec.Arms ("" = RunSpec's own method)
	inst   registry.Instance
	cfg    walk.Config

	engines []csp.Restartable
	base    []int64 // cumulative iterations per walker at epoch start
	epoch   int64   // completed epochs (the epoch currently running)
}

// NewShardRunner builds shard's runner, resuming from cp when non-nil
// (cp must be this shard's checkpoint) and starting fresh otherwise.
// For an Arms campaign the shard's engines come from its static arm,
// Arms[shard % len(Arms)], instead of the run spec's method; the arm is
// a function of (spec, shard) alone, so cp.Method is only a record.
func NewShardRunner(spec Spec, shard int, cp *Checkpoint) (*ShardRunner, error) {
	if shard < 0 || shard >= spec.Shards {
		return nil, fmt.Errorf("campaign: shard %d out of range [0,%d)", shard, spec.Shards)
	}
	method := ""
	if len(spec.Arms) > 0 {
		method = spec.Arms[shard%len(spec.Arms)]
	}
	inst, opts, err := core.ParseRunSpec(spec.RunSpec, spec.specOptions())
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if opts.MaxIterations != 0 {
		return nil, fmt.Errorf("campaign: run spec %q sets maxiter — campaigns run until solved, cancelled or past deadline", spec.RunSpec)
	}
	if method != "" {
		opts.Method = method
		opts.Portfolio = nil
	}
	cfg, err := core.WalkConfigFor(inst, opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.Allocator != nil {
		// Racing reallocates walkers INSIDE one scheduler run; a campaign
		// shard is driven engine-by-engine here and would silently ignore
		// the allocator. Arms is the campaign-level method portfolio.
		return nil, fmt.Errorf("campaign: method=racing is not valid in a campaign run spec — spread methods over shards with Spec.Arms instead")
	}
	r := &ShardRunner{
		spec:   spec,
		shard:  shard,
		method: method,
		inst:   inst,
		cfg:    cfg,
		base:   make([]int64, spec.Walkers),
	}
	if cp != nil {
		if cp.Shard != shard {
			return nil, fmt.Errorf("campaign: checkpoint is for shard %d, runner is shard %d", cp.Shard, shard)
		}
		if len(cp.Walkers) != spec.Walkers {
			return nil, fmt.Errorf("campaign: checkpoint has %d walkers, spec wants %d", len(cp.Walkers), spec.Walkers)
		}
		r.epoch = cp.Epoch
		if err := r.build(cp); err != nil {
			return nil, err
		}
	} else if err := r.build(nil); err != nil {
		return nil, err
	}
	return r, nil
}

// epochSeed mixes the completed-epoch count into the master seed so each
// epoch derives independent walker RNG streams. Epoch 0 uses the master
// seed untouched: a one-epoch campaign walks exactly the trajectories a
// plain walk run with the same seed and Shards·Walkers walkers would.
func epochSeed(master uint64, epoch int64) uint64 {
	if epoch == 0 {
		return master
	}
	return master ^ (uint64(epoch) * 0x9E3779B97F4A7C15) // golden-ratio odd mixer
}

// build constructs fresh engines for the current epoch, re-armed from cp
// when resuming (nil means epoch 0, engines keep their seeded random
// start). Seeds are derived over the campaign's FULL walker width and
// this shard takes its slice, so shards never share streams.
func (r *ShardRunner) build(cp *Checkpoint) error {
	seeds := core.DeriveSeeds(epochSeed(r.spec.MasterSeed, r.epoch), r.spec.Shards*r.spec.Walkers)
	r.engines = make([]csp.Restartable, r.spec.Walkers)
	for i := 0; i < r.spec.Walkers; i++ {
		e := r.cfg.FactoryFor(r.shard*r.spec.Walkers+i)(r.inst.NewModel(), seeds[r.shard*r.spec.Walkers+i])
		re, ok := e.(csp.Restartable)
		if !ok {
			return fmt.Errorf("campaign: engine %T is not checkpointable (csp.Restartable)", e)
		}
		if cp != nil {
			re.RestartFrom(cp.Walkers[i].Config)
			r.base[i] = cp.Walkers[i].Iterations
		}
		r.engines[i] = re
	}
	return nil
}

// Epoch returns the number of completed epochs (the epoch RunEpoch will
// run next).
func (r *ShardRunner) Epoch() int64 { return r.epoch }

// RunEpoch advances every walker by exactly SnapshotIters iterations in
// lockstep quanta of the walk config's CheckEvery, then snapshots.
//
// Outcomes:
//   - solved mid-epoch: returns (zero Checkpoint, solution, nil); the
//     runner is done.
//   - epoch completed unsolved: returns the boundary checkpoint, re-arms
//     the runner's own engines from it (see the determinism contract),
//     and is ready for the next RunEpoch.
//   - ctx cancelled: returns ctx's error; the partial epoch is
//     discarded — at most one snapshot interval of work is lost.
func (r *ShardRunner) RunEpoch(ctx context.Context) (Checkpoint, *Solution, error) {
	quantum := r.cfg.CheckEvery
	if quantum <= 0 {
		quantum = 64
	}
	var done int64
	for done < r.spec.SnapshotIters {
		if err := ctx.Err(); err != nil {
			return Checkpoint{}, nil, err
		}
		step := int64(quantum)
		if rest := r.spec.SnapshotIters - done; rest < step {
			step = rest
		}
		for i, e := range r.engines {
			if e.Step(int(step)) {
				return Checkpoint{}, r.solution(i), nil
			}
		}
		done += step
	}
	cp := r.checkpoint()
	if err := r.build(&cp); err != nil {
		// Cannot happen after a successful NewShardRunner (same factory,
		// same types), but fail loudly rather than continue un-re-armed.
		return Checkpoint{}, nil, err
	}
	return cp, nil, nil
}

// checkpoint captures the shard's state at the epoch boundary and
// advances the epoch counter.
func (r *ShardRunner) checkpoint() Checkpoint {
	r.epoch++
	cp := Checkpoint{
		CampaignID: r.spec.ID,
		Shard:      r.shard,
		Epoch:      r.epoch,
		Method:     r.method,
		BestCost:   -1,
		Walkers:    make([]WalkerState, len(r.engines)),
		Taken:      time.Now().UTC(),
	}
	for i, e := range r.engines {
		snap := csp.TakeSnapshot(e)
		ws := WalkerState{
			Config:     snap.Config,
			Iterations: r.base[i] + snap.Iterations,
			Cost:       snap.Cost,
		}
		cp.Walkers[i] = ws
		cp.Iterations += ws.Iterations
		if cp.BestCost < 0 || ws.Cost < cp.BestCost {
			cp.BestCost = ws.Cost
		}
	}
	return cp
}

// solution assembles the win report for walker i, verifying the claimed
// configuration with the instance's independent validator (the same
// backstop core.SolveInstance applies).
func (r *ShardRunner) solution(i int) *Solution {
	cfg := r.engines[i].Solution()
	if !r.inst.Valid(cfg) {
		// An engine claiming an invalid solution is an internal error;
		// surface it as an un-solved panic rather than persist a lie.
		panic(fmt.Sprintf("campaign: walker %d claimed invalid solution %v for %s", i, cfg, r.spec.RunSpec))
	}
	var total int64
	for j, e := range r.engines {
		total += r.base[j] + e.Stats().Iterations
	}
	return &Solution{
		CampaignID: r.spec.ID,
		Shard:      r.shard,
		Walker:     r.shard*r.spec.Walkers + i,
		Epoch:      r.epoch,
		Method:     r.method,
		Iterations: total,
		Config:     cfg,
		Found:      time.Now().UTC(),
	}
}
