package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/campaign"
	"repro/internal/costas"
	"repro/internal/vfs"
)

// The campaign layers are measured in serve-mix's traced run, the way a
// solverd node started with -data serves requests and runs a campaign
// side by side. The campaign is durable, at order 33, the kernel's first
// gather-path order, which never solves: every epoch is the same fixed
// work. Two shards of campaignWalkers walkers take turns on one
// goroutine, each op the loop an in-process worker runs per shard:
// ShardRunner.RunEpoch, then Coordinator.Heartbeat carrying the
// checkpoint, which returns once the store has appended and fsynced it.
//
// It is not an end-to-end workload of its own: on a shared 2-vCPU host
// the gather-path epoch ran about 35 % slower for minutes at a time (the
// SWAR order-16 solves of multiwalk about 15 %), so its end-to-end
// latency could not stay within any bound the benchmark may set.
const (
	campaignSpec    = "costas n=33"
	campaignOrder   = 33
	campaignShards  = 2
	campaignWalkers = 4
	campaignEpoch   = 1024 // iterations per walker per epoch
	// campaignPerSecond sizes the epoch list per second of run length: at
	// 60 s each pass runs about 100 epochs, so the ack tail is p90 with 10
	// beyond, in about 17 s on the reference machine (2 cores).
	campaignPerSecond = 1.7
	// campaignPrelude epochs per shard are written to the log before
	// timing, so set-up replays a store that holds real history.
	campaignPrelude = 2
	campaignSetups  = 41
)

// campaignOp is one shard epoch plus its ack.
type campaignOp struct {
	ok    bool
	epoch time.Duration // RunEpoch
	ack   time.Duration // Heartbeat with the checkpoint
	wall  time.Duration
	cp    campaign.Checkpoint
}

// campaignPass is one pass: set-up and the timed epochs of every shard.
type campaignPass struct {
	setup    []float64       // seconds per repeated set-up
	replay   []time.Duration // store reopen per set-up
	resume   []time.Duration // NewShardRunner per shard per set-up
	wall     time.Duration
	ops      [][]campaignOp // per shard
	failures []string
}

// campaignStore opens the store, over fsys when tracing.
func campaignStore(dir string, fsys *timedFS) (*campaign.Store, error) {
	if fsys == nil {
		return campaign.Open(dir)
	}
	return campaign.OpenFS(dir, fsys, campaign.StoreOptions{})
}

// runCampaignPass creates a campaign in a fresh dir, writes the prelude,
// measures the restart set-up setups times and runs epochs epochs per
// shard. fsys, when non-nil, is the store's filesystem; its record is
// cleared before the timed epochs.
func runCampaignPass(dir string, seed uint64, epochs, setups int, fsys *timedFS) (*campaignPass, error) {
	ctx := context.Background()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := campaignStore(dir, fsys)
	if err != nil {
		return nil, err
	}
	coord, err := campaign.NewCoordinator(campaign.CoordinatorConfig{Store: store})
	if err != nil {
		store.Close()
		return nil, err
	}
	spec, err := coord.Create(campaign.Spec{
		RunSpec:       campaignSpec,
		Shards:        campaignShards,
		Walkers:       campaignWalkers,
		SnapshotIters: campaignEpoch,
		MasterSeed:    seed,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	runners := make([]*campaign.ShardRunner, campaignShards)
	for s := range runners {
		if runners[s], err = campaign.NewShardRunner(spec, s, nil); err != nil {
			store.Close()
			return nil, err
		}
	}
	prelude := runShards(ctx, coord, store, spec, runners, campaignPrelude)
	if err := store.Close(); err != nil {
		return nil, err
	}
	if prelude.failures != nil {
		return nil, fmt.Errorf("prelude: %v", prelude.failures)
	}

	// Set-up is the restart an operator pays: reopen the store (replaying
	// its log), rebuild the coordinator, resume every shard from its
	// latest checkpoint.
	p := &campaignPass{}
	for k := 0; k < setups; k++ {
		if k > 0 {
			if err := store.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // start every set-up from the same heap state
		t := time.Now()
		if store, err = campaignStore(dir, fsys); err != nil {
			return nil, err
		}
		p.replay = append(p.replay, time.Since(t))
		if coord, err = campaign.NewCoordinator(campaign.CoordinatorConfig{Store: store}); err != nil {
			store.Close()
			return nil, err
		}
		for s := range runners {
			cp, ok := store.Latest(spec.ID, s)
			if !ok {
				store.Close()
				return nil, fmt.Errorf("shard %d has no checkpoint after the prelude", s)
			}
			tr := time.Now()
			if runners[s], err = campaign.NewShardRunner(spec, s, &cp); err != nil {
				store.Close()
				return nil, err
			}
			p.resume = append(p.resume, time.Since(tr))
		}
		p.setup = append(p.setup, time.Since(t).Seconds())
	}

	if fsys != nil {
		fsys.take()
	}
	timed := runShards(ctx, coord, store, spec, runners, epochs)
	p.wall, p.ops, p.failures = timed.wall, timed.ops, timed.failures
	if err := store.Close(); err != nil {
		return nil, err
	}

	// Durability: every shard's last acked checkpoint reads back from a
	// freshly replayed store.
	reopened, err := campaign.Open(dir)
	if err != nil {
		return nil, err
	}
	defer reopened.Close()
	for s, ops := range p.ops {
		last := ops[len(ops)-1].cp
		got, ok := reopened.Latest(spec.ID, s)
		if !ok || !sameCheckpoint(got, last) {
			ops[len(ops)-1].ok = false
			p.failures = append(p.failures, fmt.Sprintf("shard %d: acked epoch %d does not read back after reopen (got epoch %d)", s, last.Epoch, got.Epoch))
		}
	}
	return p, nil
}

// failedOps counts the ops that failed a check.
func (p *campaignPass) failedOps() int {
	n := 0
	for _, ops := range p.ops {
		for _, op := range ops {
			if !op.ok {
				n++
			}
		}
	}
	return n
}

func sameCheckpoint(a, b campaign.Checkpoint) bool {
	if a.Epoch != b.Epoch || a.Iterations != b.Iterations || len(a.Walkers) != len(b.Walkers) {
		return false
	}
	for i := range a.Walkers {
		if !slices.Equal(a.Walkers[i].Config, b.Walkers[i].Config) || a.Walkers[i].Iterations != b.Walkers[i].Iterations {
			return false
		}
	}
	return true
}

// runShards drives the shards in turn from one goroutine for epochs epochs
// each, acking each checkpoint through the coordinator. One engine thread
// leaves the machine's other core to the store's fsync and the runtime, so
// an op's latency is its own epoch and ack, not its neighbour's.
func runShards(ctx context.Context, coord *campaign.Coordinator, store *campaign.Store, spec campaign.Spec, runners []*campaign.ShardRunner, epochs int) *campaignPass {
	p := &campaignPass{ops: make([][]campaignOp, len(runners))}
	for s := range p.ops {
		p.ops[s] = make([]campaignOp, epochs)
	}
	stopped := make([]bool, len(runners))
	start := time.Now()
	for k := 0; k < epochs; k++ {
		for s, r := range runners {
			if stopped[s] {
				continue
			}
			op, err := campaignStep(ctx, coord, store, spec, s, r)
			p.ops[s][k] = op
			if err != nil {
				p.failures = append(p.failures, fmt.Sprintf("shard %d: %v", s, err))
				stopped[s] = true
			}
		}
	}
	p.wall = time.Since(start)
	return p
}

// campaignStep runs shard s's next epoch, acks its checkpoint and checks
// that the store holds it.
func campaignStep(ctx context.Context, coord *campaign.Coordinator, store *campaign.Store, spec campaign.Spec, s int, r *campaign.ShardRunner) (campaignOp, error) {
	ref := campaign.ShardRef{CampaignID: spec.ID, Shard: s}
	want := r.Epoch() + 1
	t0 := time.Now()
	cp, sol, err := r.RunEpoch(ctx)
	t1 := time.Now()
	var resp campaign.HeartbeatResponse
	var ackErr error
	if err == nil && sol == nil {
		resp, ackErr = coord.Heartbeat(ctx, campaign.HeartbeatRequest{
			WorkerID:    fmt.Sprintf("shard-worker-%d", s),
			Capacity:    1,
			Running:     []campaign.ShardRef{ref},
			Checkpoints: []campaign.Checkpoint{cp},
		})
	}
	t2 := time.Now()
	op := campaignOp{epoch: t1.Sub(t0), ack: t2.Sub(t1), wall: t2.Sub(t0), cp: cp}
	switch {
	case err != nil:
		return op, fmt.Errorf("epoch %d: %v", want, err)
	case sol != nil:
		return op, fmt.Errorf("epoch %d reported a solution at order %d", want, campaignOrder)
	case ackErr != nil:
		return op, fmt.Errorf("ack of epoch %d: %v", want, ackErr)
	case cp.Epoch != want || slices.Contains(resp.Cancel, ref):
		return op, fmt.Errorf("epoch %d: checkpoint epoch %d, cancelled %v", want, cp.Epoch, resp.Cancel)
	}
	if got, ok := store.Latest(spec.ID, s); !ok || !sameCheckpoint(got, cp) {
		return op, fmt.Errorf("acked epoch %d does not read back from the store", want)
	}
	op.ok = true
	return op, nil
}

// traceCampaign adds the campaign layers to a traced run: the same
// seeded campaign runs untraced and then over timing wrappers, and the
// traced pass must reproduce every untraced checkpoint.
func traceCampaign(rep *report, cfg config) error {
	epochs := cfg.ops(campaignPerSecond/float64(campaignShards), 2)
	seed := seedStream(cfg.seed, 3).Uint64() | 1
	dir := filepath.Join(cfg.dataDir, fmt.Sprintf("campaign-n33-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	plain, err := runCampaignPass(dir, seed, epochs, campaignSetups, nil)
	if err != nil {
		return err
	}
	fsys := &timedFS{FS: vfs.OS{}}
	traced, err := runCampaignPass(dir, seed, epochs, campaignSetups, fsys)
	if err != nil {
		return err
	}
	rep.attempted += 2 * campaignShards * epochs
	rep.failed += plain.failedOps() + traced.failedOps()
	for _, f := range plain.failures {
		rep.note("FAIL: campaign %s", f)
	}
	for _, f := range traced.failures {
		rep.note("FAIL: traced campaign %s", f)
	}
	var (
		epochMS, ackMS, wallSum float64
		ackLat                  []float64
		configs                 [][]int
	)
	for s, ops := range traced.ops {
		for k, op := range ops {
			want := plain.ops[s][k].cp
			if op.cp.BestCost != want.BestCost || !sameCheckpoint(op.cp, want) {
				rep.fail("traced campaign shard %d epoch %d diverged from the untraced run", s, k+1)
			}
			epochMS += ms(op.epoch)
			ackMS += ms(op.ack)
			ackLat = append(ackLat, ms(op.ack))
			wallSum += ms(op.wall)
			for _, w := range op.cp.Walkers {
				configs = append(configs, w.Config)
			}
		}
	}
	bytes, syncs := fsys.take()
	syncMS := msAll(syncs)

	// The gather-path kernel, timed on the run's checkpoint configurations.
	model := costas.New(campaignOrder, costas.Options{})
	deltas := make([]int, campaignOrder)
	var scan time.Duration
	for _, c := range configs {
		model.Bind(c)
		t := time.Now()
		for i := 0; i < campaignOrder; i++ {
			model.ScanSwaps(i, deltas)
		}
		scan += time.Since(t)
	}

	n := float64(len(ackLat))
	unattributed := math.Abs(wallSum-epochMS-ackMS) / wallSum
	m := rep.metrics
	m["costas.scan_ns"] = float64(scan) / float64(len(configs)*campaignOrder)
	m["campaign.epoch_ms"] = epochMS / n
	m["campaign.epoch_ns_per_iter"] = epochMS * 1e6 / n / (campaignWalkers * campaignEpoch)
	m["campaign.ack_p50_ms"] = median(ackLat)
	m["campaign.ack_tail_ms"], _, _ = tail(ackLat)
	m["vfs.sync_p50_ms"] = median(syncMS)
	m["vfs.sync_tail_ms"], _, _ = tail(syncMS)
	m["vfs.bytes_per_ack"] = float64(bytes) / n
	m["campaign.replay_ms"] = median(msAll(traced.replay))
	m["campaign.resume_ms"] = median(msAll(traced.resume))

	rep.note("campaign %s: %d shards x %d walkers, %d epochs of %d iterations per shard; costas.scan_ns is the gather path at order %d",
		campaignSpec, campaignShards, campaignWalkers, epochs, campaignEpoch, campaignOrder)
	rep.note("campaign layers per op: epoch %.4f ms + ack %.4f ms = %.4f ms of %.4f ms op wall (unattributed %.4f)",
		epochMS/n, ackMS/n, (epochMS+ackMS)/n, wallSum/n, unattributed)
	rep.note("campaign trace overhead %.4f of the untraced pass wall", traced.wall.Seconds()/plain.wall.Seconds()-1)
	rep.note("%s", tailNote("campaign.ack_tail_ms", ackLat))
	rep.note("%s", tailNote("vfs.sync_tail_ms", syncMS))
	if unattributed > unattributedTolerance {
		rep.fail("campaign layers leave %.4f of op wall unattributed (tolerance %g)", unattributed, unattributedTolerance)
	}
	return nil
}
