package campaign

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/costas"
)

// hardSpec is small enough to step quickly but hard enough that a few
// tiny epochs never solve it (n=20's expected solve cost is millions of
// iterations; an epoch here is 256).
func hardSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := Spec{
		ID:            "test",
		RunSpec:       "costas n=20",
		Shards:        2,
		Walkers:       2,
		SnapshotIters: 256,
		MasterSeed:    7,
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	return spec
}

// stripTimes zeroes the wall-clock stamp so checkpoints compare on
// search state only.
func stripTimes(cp Checkpoint) Checkpoint {
	cp.Taken = time.Time{}
	return cp
}

func runEpochOrFatal(t *testing.T, r *ShardRunner) Checkpoint {
	t.Helper()
	cp, sol, err := r.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if sol != nil {
		t.Fatalf("unexpected solve of a hard instance after %d iterations", sol.Iterations)
	}
	return cp
}

// TestShardRunnerCheckpointRoundTrip is the determinism contract held
// bit-for-bit: a runner rebuilt from checkpoint k must produce exactly
// the checkpoint k+1 the uninterrupted runner produced.
func TestShardRunnerCheckpointRoundTrip(t *testing.T) {
	spec := hardSpec(t)
	live, err := NewShardRunner(spec, 0, nil)
	if err != nil {
		t.Fatalf("NewShardRunner: %v", err)
	}
	cp1 := runEpochOrFatal(t, live)
	cp2 := runEpochOrFatal(t, live)
	cp3 := runEpochOrFatal(t, live)

	if cp1.Epoch != 1 || cp2.Epoch != 2 || cp3.Epoch != 3 {
		t.Fatalf("epochs = %d,%d,%d; want 1,2,3", cp1.Epoch, cp2.Epoch, cp3.Epoch)
	}
	if cp2.Iterations <= cp1.Iterations || cp3.Iterations <= cp2.Iterations {
		t.Fatalf("iterations not monotonic: %d, %d, %d", cp1.Iterations, cp2.Iterations, cp3.Iterations)
	}

	// Simulated crash after checkpoint 1: a fresh process resumes.
	resumed, err := NewShardRunner(spec, 0, &cp1)
	if err != nil {
		t.Fatalf("NewShardRunner(resume): %v", err)
	}
	if resumed.Epoch() != cp1.Epoch {
		t.Fatalf("resumed epoch = %d, want %d", resumed.Epoch(), cp1.Epoch)
	}
	got2 := runEpochOrFatal(t, resumed)
	if !reflect.DeepEqual(stripTimes(got2), stripTimes(cp2)) {
		t.Errorf("resumed checkpoint 2 diverged from live run:\n got  %+v\n want %+v", stripTimes(got2), stripTimes(cp2))
	}
	got3 := runEpochOrFatal(t, resumed)
	if !reflect.DeepEqual(stripTimes(got3), stripTimes(cp3)) {
		t.Errorf("resumed checkpoint 3 diverged from live run:\n got  %+v\n want %+v", stripTimes(got3), stripTimes(cp3))
	}
}

// TestShardRunnerShardsAreIndependent: distinct shards derive distinct
// walker streams from the same campaign seed.
func TestShardRunnerShardsAreIndependent(t *testing.T) {
	spec := hardSpec(t)
	r0, err := NewShardRunner(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewShardRunner(spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp0 := runEpochOrFatal(t, r0)
	cp1 := runEpochOrFatal(t, r1)
	if reflect.DeepEqual(cp0.Walkers, cp1.Walkers) {
		t.Fatal("shard 0 and shard 1 walked identical trajectories — shard seed slicing is broken")
	}
}

// TestShardRunnerSolves: an easy instance solves deterministically, and
// the claimed solution verifies.
func TestShardRunnerSolves(t *testing.T) {
	spec, err := Spec{
		ID:            "easy",
		RunSpec:       "costas n=10",
		Shards:        1,
		Walkers:       2,
		SnapshotIters: 1 << 16,
		MasterSeed:    3,
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	solve := func() *Solution {
		r, err := NewShardRunner(spec, 0, nil)
		if err != nil {
			t.Fatalf("NewShardRunner: %v", err)
		}
		for i := 0; i < 64; i++ {
			_, sol, err := r.RunEpoch(context.Background())
			if err != nil {
				t.Fatalf("RunEpoch: %v", err)
			}
			if sol != nil {
				return sol
			}
		}
		t.Fatal("n=10 did not solve in 64 epochs")
		return nil
	}
	a, b := solve(), solve()
	if !costas.IsCostas(a.Config) {
		t.Fatalf("solution %v is not a Costas array", a.Config)
	}
	a.Found, b.Found = time.Time{}, time.Time{}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("solve is not deterministic:\n got  %+v\n then %+v", a, b)
	}
}

// TestShardRunnerCancelDiscardsPartialEpoch: a cancelled epoch leaves
// the runner exactly at its last boundary.
func TestShardRunnerCancelDiscardsPartialEpoch(t *testing.T) {
	spec := hardSpec(t)
	r, err := NewShardRunner(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.RunEpoch(cancelled); err == nil {
		t.Fatal("RunEpoch on a cancelled ctx returned nil error")
	}
	// The boundary state is intact: the next epoch matches a clean run's
	// first epoch.
	got := runEpochOrFatal(t, r)
	clean, err := NewShardRunner(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := runEpochOrFatal(t, clean)
	if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
		t.Errorf("post-cancel epoch diverged from clean run:\n got  %+v\n want %+v", stripTimes(got), stripTimes(want))
	}
}

// TestSpecRejectsBudgetKeys: campaigns run until solved or cancelled —
// a per-walk iteration budget contradicts that.
func TestSpecRejectsBudgetKeys(t *testing.T) {
	_, err := Spec{RunSpec: "costas n=12 maxiter=1000"}.Normalize()
	if err == nil {
		t.Fatal("Normalize accepted a run spec with maxiter")
	}
}

func TestSpecRejectsUnknownModel(t *testing.T) {
	_, err := Spec{RunSpec: "nosuchmodel n=5"}.Normalize()
	if err == nil {
		t.Fatal("Normalize accepted an unknown model")
	}
}

// TestSpecRejectsArmsWithoutShards: shard s runs Arms[s % len(Arms)], so
// an arm indexed at or past Shards would never run. Normalize rejects
// such a spec; one arm per shard, duplicates and unbuildable arms are
// checked too.
func TestSpecRejectsArmsWithoutShards(t *testing.T) {
	arms := []string{"adaptive", "tabu", "hillclimb"}
	if _, err := (Spec{RunSpec: "costas n=12", Shards: 2, Arms: arms}).Normalize(); err == nil {
		t.Fatal("Normalize accepted 3 arms on 2 shards")
	}
	if _, err := (Spec{RunSpec: "costas n=12", Arms: arms[:2]}).Normalize(); err == nil {
		t.Fatal("Normalize accepted 2 arms on the default single shard")
	}
	if _, err := (Spec{RunSpec: "costas n=12", Shards: 3, Arms: arms}).Normalize(); err != nil {
		t.Fatalf("Normalize rejected one arm per shard: %v", err)
	}
	if _, err := (Spec{RunSpec: "costas n=12", Shards: 2, Arms: []string{"tabu", "tabu"}}).Normalize(); err == nil {
		t.Fatal("Normalize accepted a duplicate arm")
	}
	if _, err := (Spec{RunSpec: "costas n=12", Shards: 2, Arms: []string{"tabu", "racing"}}).Normalize(); err == nil {
		t.Fatal("Normalize accepted an arm that cannot run in a shard")
	}
}

// TestShardRunnerMethodArm: in an Arms campaign shard s walks
// Arms[s % len(Arms)] with that arm's engines and stamps the arm into
// every checkpoint; a resume keeps the static arm even when the
// checkpoint records another one.
func TestShardRunnerMethodArm(t *testing.T) {
	spec := Spec{ID: "arm", RunSpec: "costas n=16", Shards: 3, Walkers: 2,
		SnapshotIters: 128, MasterSeed: 9, Arms: []string{"adaptive", "tabu"}}
	for shard, want := range []string{"adaptive", "tabu", "adaptive"} {
		r, err := NewShardRunner(spec, shard, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		cp, sol, err := r.RunEpoch(context.Background())
		if err != nil || sol != nil {
			t.Fatalf("shard %d epoch: cp=%+v sol=%+v err=%v", shard, cp, sol, err)
		}
		if cp.Method != want {
			t.Fatalf("shard %d checkpoint method = %q, want %q", shard, cp.Method, want)
		}

		cp.Method = "hillclimb"
		resumed, err := NewShardRunner(spec, shard, &cp)
		if err != nil {
			t.Fatalf("shard %d resume: %v", shard, err)
		}
		if resumed.method != want {
			t.Fatalf("shard %d resumed on arm %q, want its static arm %q", shard, resumed.method, want)
		}
	}
}

// TestShardRunnerRejectsRacing: method=racing cannot run inside a
// campaign shard (Arms is the campaign-level method portfolio).
func TestShardRunnerRejectsRacing(t *testing.T) {
	spec := Spec{ID: "bad", RunSpec: "costas n=16 method=racing", Shards: 1,
		Walkers: 2, SnapshotIters: 128, MasterSeed: 1}
	if _, err := NewShardRunner(spec, 0, nil); err == nil {
		t.Fatal("racing run spec accepted by a campaign shard runner")
	}
}
