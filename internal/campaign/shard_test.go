package campaign

import (
	"context"
	"fmt"
	"reflect"
	"strings"
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

// TestShardRunnerCancelDiscardsPartialEpoch: an epoch whose ctx is
// already cancelled returns before its first quantum and leaves the
// runner at its last boundary. (A ctx cancelled mid-epoch leaves the
// runner spent; RunEpoch's doc says how to resume.)
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

// TestShardRunnerPortfolioArms: method=portfolio is how a campaign
// mixes methods. The campaign's global walker k (shard·Walkers + i) runs
// portfolio arm k mod 2 in every shard, and a shard of mixed engines
// resumes from a checkpoint bit-identically.
func TestShardRunnerPortfolioArms(t *testing.T) {
	spec, err := Spec{
		ID:            "mix",
		RunSpec:       "costas n=12 method=portfolio portfolio=adaptive,tabu",
		Shards:        2,
		Walkers:       3,
		SnapshotIters: 16, // three epochs stay short of a solve at n=12
		MasterSeed:    5,
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	engineType := func(method string) string {
		t.Helper()
		r, err := NewShardRunner(Spec{ID: method, RunSpec: "costas n=12 method=" + method,
			Shards: 1, Walkers: 1, SnapshotIters: 64, MasterSeed: 1}, 0, nil)
		if err != nil {
			t.Fatalf("%s runner: %v", method, err)
		}
		return fmt.Sprintf("%T", r.engines[0])
	}
	arms := []string{engineType("adaptive"), engineType("tabu")}
	if arms[0] == arms[1] {
		t.Fatalf("adaptive and tabu build the same engine type %s", arms[0])
	}

	for shard := 0; shard < spec.Shards; shard++ {
		live, err := NewShardRunner(spec, shard, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		for i, e := range live.engines {
			k := shard*spec.Walkers + i
			if got := fmt.Sprintf("%T", e); got != arms[k%2] {
				t.Fatalf("shard %d walker %d (global %d) runs %s, want arm %d (%s)", shard, i, k, got, k%2, arms[k%2])
			}
		}

		// Up to three epochs, stopping at a solve: n=12 is easy, so the
		// resumed runner must reproduce a solution as well as checkpoints.
		live1 := runEpochOrFatal(t, live)
		var want []epochOutcome
		for len(want) < 2 {
			o := runEpoch(t, live)
			want = append(want, o)
			if o.Sol != nil {
				break
			}
		}
		resumed, err := NewShardRunner(spec, shard, &live1)
		if err != nil {
			t.Fatalf("shard %d resume: %v", shard, err)
		}
		for i, e := range resumed.engines {
			if got, w := fmt.Sprintf("%T", e), fmt.Sprintf("%T", live.engines[i]); got != w {
				t.Fatalf("shard %d walker %d resumed as %s, want %s", shard, i, got, w)
			}
		}
		for e, w := range want {
			if got := runEpoch(t, resumed); !reflect.DeepEqual(got, w) {
				t.Errorf("shard %d resumed epoch %d diverged:\n got  %+v\n want %+v", shard, e+2, got, w)
			}
		}
	}
}

// epochOutcome is one RunEpoch result with its wall-clock stamps zeroed.
type epochOutcome struct {
	CP  Checkpoint
	Sol *Solution
}

func runEpoch(t *testing.T, r *ShardRunner) epochOutcome {
	t.Helper()
	cp, sol, err := r.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if sol != nil {
		sol.Found = time.Time{}
	}
	return epochOutcome{CP: stripTimes(cp), Sol: sol}
}

// TestShardRunnerRejectsRacing: method=racing cannot run inside a
// campaign shard, at create time (Normalize) or on a worker; the error
// points to method=portfolio, the way to mix methods in a campaign.
func TestShardRunnerRejectsRacing(t *testing.T) {
	spec := Spec{ID: "bad", RunSpec: "costas n=16 method=racing", Shards: 1,
		Walkers: 2, SnapshotIters: 128, MasterSeed: 1}
	_, err := NewShardRunner(spec, 0, nil)
	if err == nil {
		t.Fatal("racing run spec accepted by a campaign shard runner")
	}
	if !strings.Contains(err.Error(), "method=portfolio") {
		t.Fatalf("racing rejection %q does not name method=portfolio", err)
	}
	if _, err := spec.Normalize(); err == nil {
		t.Fatal("Normalize accepted a racing run spec")
	}
}
