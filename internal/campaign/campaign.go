// Package campaign turns the solver fleet from request/response into a
// long-running distributed search system: a campaign is a durable,
// checkpointable multi-walk attack on one hard instance (the paper's
// cluster-scale runs on open Costas orders), sharded across a dynamic
// set of workers and able to survive the death of any of them — worker
// or coordinator — losing at most one snapshot interval of work.
//
// The moving parts:
//
//   - Store (store.go): an append-only JSON-lines record log per
//     campaign under a data directory. Every state transition — create,
//     checkpoint, attempt, terminal state — is one fsynced record;
//     opening the store replays the logs into an in-memory view.
//
//   - ShardRunner (shard.go): the deterministic walk driver. A campaign
//     is split into Shards independent shards of Walkers lockstep
//     walkers each; every SnapshotIters iterations the runner emits a
//     Checkpoint and re-arms its own engines from it, so the
//     continuation after checkpoint k is a pure function of checkpoint
//     k — identical whether or not a crash intervened (see shard.go for
//     why this yields bit-identical resume).
//
//   - Coordinator (coordinator.go): owns the store, hands shards to
//     workers and reassigns them when a lease expires. Membership is
//     dynamic: workers register and heartbeat instead of being listed
//     on the command line, and a heartbeat from an unknown worker
//     (re-)registers it implicitly, which is what lets workers sail
//     through a coordinator restart.
//
//   - Worker (worker.go): runs assigned shards, buffers checkpoints
//     while the coordinator is unreachable, and delivers them on the
//     next successful heartbeat.
//
// internal/service exposes the Coordinator over HTTP (/v1/campaigns…)
// and HTTPControl (httpctl.go) is the matching worker-side client; in
// one process the Coordinator itself implements Control, so a single
// solverd -data node is a complete campaign system.
package campaign

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
)

// Campaign states as persisted and reported by Status.
const (
	StateRunning   = "running"
	StateSolved    = "solved"
	StateCancelled = "cancelled"
)

// Spec describes one durable campaign. The zero value is not runnable;
// Normalize applies defaults and validates the run spec.
type Spec struct {
	// ID is the campaign's durable identity (log file name, API path
	// element). Empty on create; the coordinator assigns one.
	ID string `json:"id"`

	// RunSpec is the instance + solver options in the registry's run-spec
	// syntax, e.g. "costas n=24" or "costas n=22 method=tabu". Per-walk
	// budget keys (maxiter) are rejected: a campaign runs until solved,
	// cancelled or past its deadline. method=racing is rejected too: it
	// moves walkers between methods inside one scheduler run, which a
	// checkpointed shard cannot replay. To mix methods across a campaign
	// use method=portfolio: the campaign's global walker k (shard s owns
	// walkers [s·Walkers, (s+1)·Walkers)) runs portfolio arm
	// k mod len(portfolio) for the campaign's whole life.
	RunSpec string `json:"run_spec"`

	// Shards is the number of independently assignable walk groups; the
	// unit of distribution and checkpointing. Default 1.
	Shards int `json:"shards"`

	// Walkers is the number of lockstep walkers per shard. Default 4.
	Walkers int `json:"walkers"`

	// SnapshotIters is the checkpoint cadence: every walker advances
	// exactly this many iterations per epoch, then the shard snapshots.
	// Iteration-based (not time-based) so resume is deterministic.
	// Default 1<<20.
	SnapshotIters int64 `json:"snapshot_iters"`

	// MasterSeed seeds the per-epoch chaotic seed derivation (shard.go).
	// Zero normalizes to 1, like everywhere else in the repo.
	MasterSeed uint64 `json:"master_seed"`

	// Deadline, when non-zero, is the wall-clock end of the campaign:
	// the coordinator cancels it on the first heartbeat past this time
	// (the `-hours` flag of cmd/costas). Zero means run until solved or
	// cancelled.
	Deadline time.Time `json:"deadline,omitzero"`

	// Created is stamped by the coordinator at create time.
	Created time.Time `json:"created,omitzero"`
}

// Normalize applies defaults and validates that RunSpec resolves to a
// runnable instance whose engines support checkpointing (csp.Restartable).
func (s Spec) Normalize() (Spec, error) {
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Walkers <= 0 {
		s.Walkers = 4
	}
	if s.SnapshotIters <= 0 {
		s.SnapshotIters = 1 << 20
	}
	if s.MasterSeed == 0 {
		s.MasterSeed = 1
	}
	if s.RunSpec == "" {
		return s, fmt.Errorf("campaign: empty run spec")
	}
	// Building a probe runner validates the spec end to end: instance
	// resolution, walk configuration and the Restartable requirement.
	if _, err := NewShardRunner(s, 0, nil); err != nil {
		return s, err
	}
	return s, nil
}

// specOptions is the solver-option base every campaign walk uses: the
// budget is unlimited (epochs are bounded by SnapshotIters, campaigns by
// their deadline) and walker count/seed come from the Spec, not the run
// spec. Walkers here is the TOTAL across shards so seed derivation sees
// the full width (shard s owns indexes [s·W, (s+1)·W)).
func (s Spec) specOptions() core.Options {
	return core.Options{Walkers: s.Shards * s.Walkers, Seed: s.MasterSeed}
}

// NewID returns a fresh campaign ID: 8 random bytes, hex-encoded. Random
// (not sequential) so IDs stay unique across coordinator restarts without
// a persisted counter.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("campaign: crypto/rand failed: %v", err))
	}
	return "c" + hex.EncodeToString(b[:])
}

// WalkerState is one walker's resumable state inside a Checkpoint: the
// configuration to restart from and the walker's cumulative iteration
// count across all epochs and incarnations.
type WalkerState struct {
	Config     []int `json:"config"`
	Iterations int64 `json:"iterations"`
	Cost       int   `json:"cost"`
}

// Checkpoint is one shard's durable state at an epoch boundary. Epoch
// counts completed epochs: a shard resumed from checkpoint k runs epoch
// k next, with per-epoch seeds derived from (MasterSeed, k) — see
// shard.go for the determinism contract.
type Checkpoint struct {
	CampaignID string        `json:"campaign_id"`
	Shard      int           `json:"shard"`
	Epoch      int64         `json:"epoch"`
	Iterations int64         `json:"iterations"` // Σ walker cumulative iterations
	BestCost   int           `json:"best_cost"`  // min walker cost at the boundary
	Walkers    []WalkerState `json:"walkers"`
	Taken      time.Time     `json:"taken,omitzero"`
}

// Meta strips the walker payload for checkpoint listings.
func (c Checkpoint) Meta() CheckpointMeta {
	return CheckpointMeta{
		Shard:      c.Shard,
		Epoch:      c.Epoch,
		Iterations: c.Iterations,
		BestCost:   c.BestCost,
		Taken:      c.Taken,
	}
}

// CheckpointMeta is the summary row of the checkpoint-list endpoint.
type CheckpointMeta struct {
	Shard      int       `json:"shard"`
	Epoch      int64     `json:"epoch"`
	Iterations int64     `json:"iterations"`
	BestCost   int       `json:"best_cost"`
	Taken      time.Time `json:"taken,omitzero"`
}

// Solution reports a campaign win: which shard's walker solved, after
// how much cumulative shard work, and the solving configuration.
type Solution struct {
	CampaignID string    `json:"campaign_id"`
	Shard      int       `json:"shard"`
	Walker     int       `json:"walker"` // global walker index
	Epoch      int64     `json:"epoch"`  // epoch in which the solve landed
	Iterations int64     `json:"iterations"`
	Config     []int     `json:"config"`
	Found      time.Time `json:"found,omitzero"`
}

// AttemptRecord is persisted every time a shard's assignment dies with
// its worker (lease expiry): the durable trail of how many times each
// shard has been (re)started and why.
type AttemptRecord struct {
	Shard    int       `json:"shard"`
	Worker   string    `json:"worker"`
	Attempts int       `json:"attempts"` // cumulative for the shard
	Reason   string    `json:"reason"`
	Time     time.Time `json:"time,omitzero"`
}

// ShardStatus is one shard's row in a campaign Status.
type ShardStatus struct {
	Shard      int       `json:"shard"`
	Epoch      int64     `json:"epoch"`
	Iterations int64     `json:"iterations"`
	BestCost   int       `json:"best_cost"`
	Attempts   int       `json:"attempts"`
	Worker     string    `json:"worker,omitempty"` // current assignee ("" = unassigned)
	Updated    time.Time `json:"updated,omitzero"` // last checkpoint time
}

// Status is the materialized view of one campaign: the persisted spec
// and records overlaid with the coordinator's runtime assignment map.
type Status struct {
	Spec        Spec          `json:"spec"`
	State       string        `json:"state"`
	Reason      string        `json:"reason,omitempty"`
	Solution    *Solution     `json:"solution,omitempty"`
	Shards      []ShardStatus `json:"shards"`
	Iterations  int64         `json:"iterations"`  // Σ shard cumulative iterations
	BestCost    int           `json:"best_cost"`   // min over shards (-1 before any checkpoint)
	Checkpoints int           `json:"checkpoints"` // total persisted checkpoint records
	Workers     int           `json:"workers"`     // live members (coordinator-wide)
}
