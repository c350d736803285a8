package campaign

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// ID is the worker's membership identity. Default: hostname + a
	// random suffix (unique across restarts, so a reborn worker is a new
	// member and the old lease simply expires).
	ID string

	// Control is the coordinator connection (the Coordinator itself
	// in-process, or an HTTPControl). Required.
	Control Control

	// Capacity is the number of shards run concurrently. Default 1.
	Capacity int

	// Heartbeat is the reporting period; it must comfortably undercut the
	// coordinator's lease TTL. Default 2s.
	Heartbeat time.Duration
}

// Worker runs assigned campaign shards and reports progress. It is
// deliberately coordinator-outage-tolerant: shards keep walking while
// heartbeats fail, and the checkpoints they produce are buffered and
// delivered on the next heartbeat that gets through — combined with the
// coordinator's implicit re-registration this makes a coordinator
// restart invisible to the search.
type Worker struct {
	cfg WorkerConfig

	mu          sync.Mutex
	tasks       map[ShardRef]*shardTask
	checkpoints []Checkpoint
	solutions   []Solution
}

type shardTask struct {
	ref    ShardRef
	cancel context.CancelFunc
	done   chan struct{}
}

// NewWorker builds a worker; Run starts it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Control == nil {
		return nil, fmt.Errorf("campaign: worker needs a Control")
	}
	if cfg.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		cfg.ID = host + "-" + NewID()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	return &Worker{cfg: cfg, tasks: make(map[ShardRef]*shardTask)}, nil
}

// ID returns the worker's membership identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Run registers with the coordinator and heartbeats until ctx ends, then
// stops every shard task and returns ctx's error. Registration failures
// are retried at the heartbeat period — the coordinator may simply not
// be up yet; heartbeats register implicitly anyway.
func (w *Worker) Run(ctx context.Context) error {
	w.register(ctx)
	ticker := time.NewTicker(w.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			w.stopAll()
			return ctx.Err()
		case <-ticker.C:
			w.heartbeat(ctx)
		}
	}
}

func (w *Worker) register(ctx context.Context) {
	rctx, cancel := context.WithTimeout(ctx, w.cfg.Heartbeat)
	defer cancel()
	_, _ = w.cfg.Control.Register(rctx, RegisterRequest{WorkerID: w.cfg.ID, Capacity: w.cfg.Capacity})
}

// heartbeat sends one report and applies the coordinator's orders. On
// failure the drained reports are restored to the buffer, in order, for
// the next attempt.
func (w *Worker) heartbeat(ctx context.Context) {
	w.mu.Lock()
	req := HeartbeatRequest{
		WorkerID:    w.cfg.ID,
		Capacity:    w.cfg.Capacity,
		Checkpoints: w.checkpoints,
		Solutions:   w.solutions,
	}
	for ref := range w.tasks {
		req.Running = append(req.Running, ref)
	}
	w.checkpoints = nil
	w.solutions = nil
	w.mu.Unlock()

	hctx, cancel := context.WithTimeout(ctx, w.cfg.Heartbeat)
	resp, err := w.cfg.Control.Heartbeat(hctx, req)
	cancel()
	if err != nil {
		// Coordinator unreachable (or restarting): put the reports back
		// ahead of anything produced meanwhile and carry on walking.
		w.mu.Lock()
		w.checkpoints = append(req.Checkpoints, w.checkpoints...)
		w.solutions = append(req.Solutions, w.solutions...)
		w.mu.Unlock()
		return
	}

	for _, ref := range resp.Cancel {
		w.stop(ref)
	}
	for _, asg := range resp.Assign {
		w.start(ctx, asg)
	}
}

// start launches a shard task unless one is already running for the ref.
func (w *Worker) start(ctx context.Context, asg Assignment) {
	ref := ShardRef{CampaignID: asg.Spec.ID, Shard: asg.Shard}
	w.mu.Lock()
	if _, dup := w.tasks[ref]; dup {
		w.mu.Unlock()
		return
	}
	tctx, cancel := context.WithCancel(ctx)
	t := &shardTask{ref: ref, cancel: cancel, done: make(chan struct{})}
	w.tasks[ref] = t
	w.mu.Unlock()

	go func() {
		defer close(t.done)
		defer w.remove(ref)
		runner, err := NewShardRunner(asg.Spec, asg.Shard, asg.Resume)
		if err != nil {
			// A spec the coordinator accepted but this worker cannot build
			// (version skew). Dropping the task returns the shard to
			// pending via the next heartbeat's Running list.
			return
		}
		for {
			cp, sol, err := runner.RunEpoch(tctx)
			switch {
			case err != nil:
				return // cancelled; partial epoch discarded by design
			case sol != nil:
				w.mu.Lock()
				w.solutions = append(w.solutions, *sol)
				w.mu.Unlock()
				return
			default:
				w.mu.Lock()
				w.checkpoints = append(w.checkpoints, cp)
				w.mu.Unlock()
			}
		}
	}()
}

func (w *Worker) remove(ref ShardRef) {
	w.mu.Lock()
	delete(w.tasks, ref)
	w.mu.Unlock()
}

func (w *Worker) stop(ref ShardRef) {
	w.mu.Lock()
	t := w.tasks[ref]
	w.mu.Unlock()
	if t != nil {
		t.cancel()
		<-t.done
	}
}

func (w *Worker) stopAll() {
	w.mu.Lock()
	tasks := make([]*shardTask, 0, len(w.tasks))
	for _, t := range w.tasks {
		tasks = append(tasks, t)
	}
	w.mu.Unlock()
	for _, t := range tasks {
		t.cancel()
		<-t.done
	}
}
