package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(10000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestCoordinator(t *testing.T, dir string, clock *fakeClock) (*Coordinator, *Store) {
	t.Helper()
	store, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	coord, err := NewCoordinator(CoordinatorConfig{Store: store, LeaseTTL: time.Second, Now: clock.Now})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return coord, store
}

func heartbeat(t *testing.T, c *Coordinator, req HeartbeatRequest) HeartbeatResponse {
	t.Helper()
	resp, err := c.Heartbeat(context.Background(), req)
	if err != nil {
		t.Fatalf("Heartbeat(%s): %v", req.WorkerID, err)
	}
	return resp
}

// TestCoordinatorAssignsAndReassigns: shards flow to the first worker
// with capacity, and to a replacement when the owner's lease expires —
// with the attempt persisted.
func TestCoordinatorAssignsAndReassigns(t *testing.T) {
	clock := newFakeClock()
	coord, store := newTestCoordinator(t, t.TempDir(), clock)
	spec, err := coord.Create(Spec{RunSpec: "costas n=16", Shards: 2, Walkers: 1, SnapshotIters: 64})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	resp := heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 2})
	if len(resp.Assign) != 2 {
		t.Fatalf("w1 got %d assignments, want 2", len(resp.Assign))
	}
	if resp.Assign[0].Resume != nil {
		t.Fatal("fresh shard came with a resume checkpoint")
	}

	// w1 keeps its shards as long as it reports them.
	running := []ShardRef{{spec.ID, 0}, {spec.ID, 1}}
	resp = heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 2, Running: running})
	if len(resp.Assign) != 0 || len(resp.Cancel) != 0 {
		t.Fatalf("steady-state heartbeat changed assignments: %+v", resp)
	}

	// w1 reports a checkpoint, then goes silent past its lease.
	cp := testCheckpoint(spec.ID, 0, 1)
	cp.Walkers = cp.Walkers[:1]
	heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 2, Running: running, Checkpoints: []Checkpoint{cp}})
	clock.Advance(2 * time.Second)

	resp = heartbeat(t, coord, HeartbeatRequest{WorkerID: "w2", Capacity: 2})
	if len(resp.Assign) != 2 {
		t.Fatalf("w2 got %d assignments after w1's lease expired, want 2", len(resp.Assign))
	}
	for _, asg := range resp.Assign {
		if asg.Shard == 0 {
			if asg.Resume == nil || asg.Resume.Epoch != 1 {
				t.Fatalf("shard 0 reassigned without its checkpoint: %+v", asg.Resume)
			}
		}
	}
	if got := store.Attempts(spec.ID, 0); got != 1 {
		t.Fatalf("attempts(shard 0) = %d, want 1 persisted on lease expiry", got)
	}

	// The returning stale owner is told to stop.
	resp = heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 2, Running: running})
	if len(resp.Cancel) != 2 {
		t.Fatalf("stale w1 got %d cancels, want 2", len(resp.Cancel))
	}
}

// TestCoordinatorRestartAdoption: a restarted coordinator re-adopts
// shards that live workers report, instead of double-assigning them.
func TestCoordinatorRestartAdoption(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	coord1, store1 := newTestCoordinator(t, dir, clock)
	spec, err := coord1.Create(Spec{RunSpec: "costas n=16", Shards: 2, Walkers: 1, SnapshotIters: 64})
	if err != nil {
		t.Fatal(err)
	}
	heartbeat(t, coord1, HeartbeatRequest{WorkerID: "w1", Capacity: 1})
	store1.Close()

	// "Coordinator restart": fresh store + coordinator over the same dir.
	coord2, _ := newTestCoordinator(t, dir, clock)

	// w1 still walks shard 0 and reports it; the restarted coordinator
	// must adopt, not cancel or reassign it.
	resp := heartbeat(t, coord2, HeartbeatRequest{WorkerID: "w1", Capacity: 1, Running: []ShardRef{{spec.ID, 0}}})
	if len(resp.Cancel) != 0 {
		t.Fatalf("restarted coordinator cancelled a live shard: %+v", resp.Cancel)
	}
	if len(resp.Assign) != 0 {
		t.Fatalf("w1 at capacity got new work: %+v", resp.Assign)
	}

	// Shard 1 is still pending and goes to the next worker.
	resp = heartbeat(t, coord2, HeartbeatRequest{WorkerID: "w2", Capacity: 1})
	if len(resp.Assign) != 1 || resp.Assign[0].Shard != 1 {
		t.Fatalf("w2 assignments = %+v, want shard 1", resp.Assign)
	}

	// And shard 0 is NOT handed out again.
	resp = heartbeat(t, coord2, HeartbeatRequest{WorkerID: "w3", Capacity: 2})
	if len(resp.Assign) != 0 {
		t.Fatalf("adopted shard was double-assigned: %+v", resp.Assign)
	}
}

// TestCoordinatorSolutionEndsCampaign: the first solution wins; other
// shards are cancelled at their owner's next heartbeat and late
// checkpoints are ignored.
func TestCoordinatorSolutionEndsCampaign(t *testing.T) {
	clock := newFakeClock()
	coord, store := newTestCoordinator(t, t.TempDir(), clock)
	spec, err := coord.Create(Spec{RunSpec: "costas n=16", Shards: 2, Walkers: 1, SnapshotIters: 64})
	if err != nil {
		t.Fatal(err)
	}
	heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 2})

	sol := Solution{CampaignID: spec.ID, Shard: 1, Walker: 1, Epoch: 1, Iterations: 500, Config: []int{0, 2, 1}}
	resp := heartbeat(t, coord, HeartbeatRequest{
		WorkerID: "w1", Capacity: 2,
		Running:   []ShardRef{{spec.ID, 0}},
		Solutions: []Solution{sol},
	})
	if len(resp.Cancel) != 1 || resp.Cancel[0].Shard != 0 {
		t.Fatalf("surviving shard not cancelled after solve: %+v", resp.Cancel)
	}
	st, _ := coord.Status(spec.ID)
	if st.State != StateSolved || st.Solution == nil || st.Solution.Shard != 1 {
		t.Fatalf("status after solve = %+v", st)
	}

	// A straggler checkpoint for the finished campaign is dropped.
	before := len(store.History(spec.ID))
	cp := testCheckpoint(spec.ID, 0, 9)
	cp.Walkers = cp.Walkers[:1]
	heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 2, Checkpoints: []Checkpoint{cp}})
	if got := len(store.History(spec.ID)); got != before {
		t.Fatalf("checkpoint persisted after terminal state (%d → %d records)", before, got)
	}
}

// TestCoordinatorCheckpointIdempotence: redelivered checkpoints (a
// worker retrying after a half-processed heartbeat) do not duplicate.
func TestCoordinatorCheckpointIdempotence(t *testing.T) {
	clock := newFakeClock()
	coord, store := newTestCoordinator(t, t.TempDir(), clock)
	spec, err := coord.Create(Spec{RunSpec: "costas n=16", Shards: 1, Walkers: 1, SnapshotIters: 64})
	if err != nil {
		t.Fatal(err)
	}
	cp := testCheckpoint(spec.ID, 0, 1)
	cp.Walkers = cp.Walkers[:1]
	heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 1, Checkpoints: []Checkpoint{cp}})
	heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 1, Checkpoints: []Checkpoint{cp}})
	if got := len(store.History(spec.ID)); got != 1 {
		t.Fatalf("redelivered checkpoint stored %d times, want 1", got)
	}
}

// TestCoordinatorDeadline: a campaign past its deadline is cancelled on
// the next heartbeat.
func TestCoordinatorDeadline(t *testing.T) {
	clock := newFakeClock()
	coord, _ := newTestCoordinator(t, t.TempDir(), clock)
	spec, err := coord.Create(Spec{
		RunSpec: "costas n=16", Shards: 1, Walkers: 1, SnapshotIters: 64,
		Deadline: clock.Now().Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 1})
	clock.Advance(2 * time.Hour)
	resp := heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 1, Running: []ShardRef{{spec.ID, 0}}})
	if len(resp.Cancel) != 1 {
		t.Fatalf("deadline-expired campaign's shard not cancelled: %+v", resp)
	}
	st, _ := coord.Status(spec.ID)
	if st.State != StateCancelled || st.Reason != "deadline" {
		t.Fatalf("status = %q/%q, want cancelled/deadline", st.State, st.Reason)
	}
}

// TestCoordinatorClockJumpTolerance: a clock step far beyond heartbeat
// cadence (NTP step, suspended VM) must not mass-expire the fleet —
// live leases are re-armed for one fresh TTL, and a worker that stays
// silent through that fresh TTL still expires.
func TestCoordinatorClockJumpTolerance(t *testing.T) {
	clock := newFakeClock()
	coord, store := newTestCoordinator(t, t.TempDir(), clock)
	spec, err := coord.Create(Spec{RunSpec: "costas n=16", Shards: 2, Walkers: 1, SnapshotIters: 64})
	if err != nil {
		t.Fatal(err)
	}
	resp := heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 2})
	if len(resp.Assign) != 2 {
		t.Fatalf("w1 got %d assignments, want 2", len(resp.Assign))
	}

	// The clock leaps 10×TTL — far past MaxClockJump (2×TTL). w1's
	// shards must NOT be reassigned to w2.
	clock.Advance(10 * time.Second)
	resp = heartbeat(t, coord, HeartbeatRequest{WorkerID: "w2", Capacity: 2})
	if len(resp.Assign) != 0 {
		t.Fatalf("clock jump mass-expired w1: w2 got %+v", resp.Assign)
	}
	if got := coord.SkewEvents(); got != 1 {
		t.Fatalf("SkewEvents = %d, want 1", got)
	}
	if got := store.Attempts(spec.ID, 0); got != 0 {
		t.Fatalf("attempts = %d, want 0 — anomaly must not burn an attempt", got)
	}

	// w1 stays silent through the re-armed TTL (advanced in steps small
	// enough to not look like further anomalies) → it genuinely expires
	// and w2 inherits the shards.
	for i := 0; i < 3; i++ {
		clock.Advance(600 * time.Millisecond)
		resp = heartbeat(t, coord, HeartbeatRequest{WorkerID: "w2", Capacity: 2})
	}
	if len(resp.Assign) != 2 {
		t.Fatalf("silent w1 never expired after the grace TTL: %+v", resp.Assign)
	}
	if got := store.Attempts(spec.ID, 0); got != 1 {
		t.Fatalf("attempts = %d, want 1 after real expiry", got)
	}
}

// TestWorkerSolvesInProcess drives the full loop — coordinator, worker,
// shard runner, store — on an easy instance until the campaign solves.
func TestWorkerSolvesInProcess(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(CoordinatorConfig{Store: store, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := coord.Create(Spec{RunSpec: "costas n=10", Shards: 2, Walkers: 2, SnapshotIters: 512, MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{ID: "w1", Control: coord, Capacity: 2, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()

	deadline := time.Now().Add(25 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := coord.Status(spec.ID); ok && st.State == StateSolved {
			cancel()
			<-done
			if st.Solution == nil {
				t.Fatal("solved without a solution record")
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("campaign did not solve n=10 in time")
}

// staticArmRunners checks a heartbeat response that assigns every
// shard of spec against the static arm table want, and builds each
// shard's runner exactly as a worker would.
func staticArmRunners(t *testing.T, spec Spec, want []string, phase string, resp HeartbeatResponse) map[int]*ShardRunner {
	t.Helper()
	if raw, _ := json.Marshal(resp); strings.Contains(string(raw), "retune") {
		t.Fatalf("%s: response steers running shards: %s", phase, raw)
	}
	if len(resp.Assign) != spec.Shards {
		t.Fatalf("%s: got %d assignments, want %d", phase, len(resp.Assign), spec.Shards)
	}
	out := make(map[int]*ShardRunner)
	for _, asg := range resp.Assign {
		r, err := NewShardRunner(asg.Spec, asg.Shard, asg.Resume)
		if err != nil {
			t.Fatalf("%s: shard %d: %v", phase, asg.Shard, err)
		}
		if r.method != want[asg.Shard] {
			t.Fatalf("%s: shard %d runs arm %q, want %q", phase, asg.Shard, r.method, want[asg.Shard])
		}
		out[asg.Shard] = r
	}
	return out
}

// reportOtherArm walks one epoch of every runner and returns checkpoints
// that claim the next arm of want instead of the shard's own, as a
// coordinator that steered shards between arms would have stored them.
func reportOtherArm(t *testing.T, runners map[int]*ShardRunner, want []string) []Checkpoint {
	t.Helper()
	var cps []Checkpoint
	for s := 0; s < len(runners); s++ {
		cp, sol, err := runners[s].RunEpoch(context.Background())
		if err != nil || sol != nil {
			t.Fatalf("shard %d epoch: sol=%+v err=%v", s, sol, err)
		}
		if cp.Method != want[s] {
			t.Fatalf("shard %d checkpoint records arm %q, want %q", s, cp.Method, want[s])
		}
		cp.Method = want[(s+1)%len(want)]
		cps = append(cps, cp)
	}
	return cps
}

// TestCoordinatorStaticArms: Arms is a static portfolio — shard s runs
// Arms[s % len(Arms)] on its first assignment and on reassignment after
// a lease expiry, whatever arm its resume checkpoint records, and no
// heartbeat response steers a running shard.
func TestCoordinatorStaticArms(t *testing.T) {
	clock := newFakeClock()
	coord, _ := newTestCoordinator(t, t.TempDir(), clock)
	spec, err := coord.Create(Spec{
		RunSpec: "costas n=16", Shards: 3, Walkers: 1, SnapshotIters: 64,
		Arms: []string{"adaptive", "tabu"},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	want := []string{"adaptive", "tabu", "adaptive"}

	first := staticArmRunners(t, spec, want, "first assignment", heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 3}))
	running := []ShardRef{{spec.ID, 0}, {spec.ID, 1}, {spec.ID, 2}}
	cps := reportOtherArm(t, first, want)
	resp := heartbeat(t, coord, HeartbeatRequest{WorkerID: "w1", Capacity: 3, Running: running, Checkpoints: cps})
	if len(resp.Assign) != 0 || len(resp.Cancel) != 0 {
		t.Fatalf("steady-state heartbeat changed assignments: %+v", resp)
	}

	clock.Advance(2 * time.Second)
	resumed := staticArmRunners(t, spec, want, "reassignment", heartbeat(t, coord, HeartbeatRequest{WorkerID: "w2", Capacity: 3}))
	for s, r := range resumed {
		if r.Epoch() != 1 {
			t.Fatalf("shard %d reassigned at epoch %d, want its checkpoint's epoch 1", s, r.Epoch())
		}
		cp, sol, err := r.RunEpoch(context.Background())
		if err != nil || sol != nil {
			t.Fatalf("shard %d resumed epoch: sol=%+v err=%v", s, sol, err)
		}
		if cp.Method != want[s] {
			t.Fatalf("shard %d resumed on arm %q, want its static arm %q", s, cp.Method, want[s])
		}
	}
}

// TestCoordinatorStaticArmsSurviveRestart: a restarted coordinator hands
// every shard its static arm again, resuming from the stored checkpoint
// whatever arm that checkpoint records.
func TestCoordinatorStaticArmsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	coord1, store1 := newTestCoordinator(t, dir, clock)
	spec, err := coord1.Create(Spec{
		RunSpec: "costas n=16", Shards: 2, Walkers: 1, SnapshotIters: 64,
		Arms: []string{"adaptive", "tabu"},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	want := []string{"adaptive", "tabu"}

	first := staticArmRunners(t, spec, want, "first assignment", heartbeat(t, coord1, HeartbeatRequest{WorkerID: "w1", Capacity: 2}))
	heartbeat(t, coord1, HeartbeatRequest{
		WorkerID: "w1", Capacity: 2,
		Running:     []ShardRef{{spec.ID, 0}, {spec.ID, 1}},
		Checkpoints: reportOtherArm(t, first, want),
	})
	store1.Close()

	coord2, _ := newTestCoordinator(t, dir, clock)
	resumed := staticArmRunners(t, spec, want, "restarted coordinator", heartbeat(t, coord2, HeartbeatRequest{WorkerID: "w2", Capacity: 2}))
	for s, r := range resumed {
		if r.Epoch() != 1 {
			t.Fatalf("shard %d resumed at epoch %d after restart, want its checkpoint's epoch 1", s, r.Epoch())
		}
	}
}
