package walk_test

// Racing-loop conformance and determinism tests. These live in an
// external test package so they can drive the window loop with the real
// internal/race policy (race imports walk for the Allocator types).

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/csp"
	"repro/internal/dialectic"
	"repro/internal/hillclimb"
	"repro/internal/race"
	"repro/internal/registry"
	"repro/internal/tabu"
	"repro/internal/walk"
)

// summing wraps an Allocator and accumulates the observed per-walker
// deltas — the left-hand side of the windowed-attribution conformance
// property: Σ_w Observe(w) deltas == Result.Stats, walker by walker.
type summing struct {
	walk.Allocator
	sums []csp.Stats
}

func (s *summing) Observe(w int, obs []walk.WalkerObs) {
	if s.sums == nil {
		s.sums = make([]csp.Stats, len(obs))
	}
	for i, o := range obs {
		s.sums[i] = s.sums[i].Add(o.Delta)
	}
	s.Allocator.Observe(w, obs)
}

// windowed wraps an Allocator and overrides its reallocation cadence, so
// small instances span several racing windows.
type windowed struct {
	walk.Allocator
	window int64
}

func (w windowed) Window(int) int64 { return w.window }

// churn is a deterministic allocator that rotates every walker across
// the arms each window — the worst case for the migration/carry
// accounting (every boundary restarts every walker that can restart).
type churn struct {
	walkers, arms int
	window        int64
}

func (c churn) Window(int) int64              { return c.window }
func (c churn) Observe(int, []walk.WalkerObs) {}
func (c churn) Assign(w int) []int {
	assign := make([]int, c.walkers)
	for i := range assign {
		assign[i] = (i + w) % c.arms
	}
	return assign
}

// engineFactories is the full engine matrix the conformance property
// must hold for — every method that can run under the racing loop.
func engineFactories() map[string]csp.Factory {
	return map[string]csp.Factory{
		"adaptive":  adaptive.Factory(adaptive.Params{}),
		"tabu":      tabu.Factory(tabu.Params{}),
		"hillclimb": hillclimb.Factory(hillclimb.Params{}),
		"dialectic": dialectic.Factory(dialectic.Params{}),
	}
}

// conformanceInstances resolves every registry model's conformance
// instance (small, quickly solvable by every engine).
func conformanceInstances(t *testing.T) map[string]registry.Instance {
	t.Helper()
	out := map[string]registry.Instance{}
	for _, e := range registry.Default.All() {
		if e.Conformance == nil {
			continue
		}
		inst, err := registry.Default.Build(registry.Spec{Name: e.Name, Params: e.Conformance})
		if err != nil {
			t.Fatalf("build conformance instance for %s: %v", e.Name, err)
		}
		out[e.Name] = inst
	}
	if len(out) == 0 {
		t.Fatal("no registry entries declare a conformance instance")
	}
	return out
}

// TestRacingWindowDeltasSumToEngineTotals checks the attribution
// contract for every engine × registry model: the windowed Stats.Sub
// deltas fed to the Allocator, summed over all racing windows, equal
// each walker's lifetime engine totals in Result.Stats — including the
// restarts charged by migrations (the churn allocator migrates every
// walker at every boundary).
func TestRacingWindowDeltasSumToEngineTotals(t *testing.T) {
	for model, inst := range conformanceInstances(t) {
		for method, factory := range engineFactories() {
			t.Run(model+"/"+method, func(t *testing.T) {
				alloc := &summing{Allocator: churn{walkers: 4, arms: 2, window: 16}}
				res := walk.Virtual(context.Background(), inst.NewModel, walk.Config{
					Walkers:    4,
					MasterSeed: 7,
					// Two arms, same method: every rotation is a real
					// migration through csp.Restartable.
					Portfolio: []csp.Factory{factory, factory},
					Allocator: alloc,
				}, 2048)
				if alloc.sums == nil {
					if res.TotalIterations != 0 {
						t.Fatalf("no windows observed but %d iterations ran", res.TotalIterations)
					}
					return
				}
				for i := range alloc.sums {
					if !reflect.DeepEqual(alloc.sums[i], res.Stats[i]) {
						t.Fatalf("walker %d: Σ window deltas %+v != engine totals %+v",
							i, alloc.sums[i], res.Stats[i])
					}
				}
				if res.Solved && !inst.Valid(res.Solution) {
					t.Fatal("racing run returned an invalid solution")
				}
			})
		}
	}
}

// TestRacingControllerDeltasSumToEngineTotals runs the same conformance
// property through the REAL racing policy (internal/race) on every
// registry model, and checks the controller's own per-arm attribution:
// arm stats summed over arms equal the fleet totals.
func TestRacingControllerDeltasSumToEngineTotals(t *testing.T) {
	for model, inst := range conformanceInstances(t) {
		t.Run(model, func(t *testing.T) {
			ctrl := race.NewController([]string{"adaptive", "tabu"}, 6)
			alloc := &summing{Allocator: windowed{ctrl, 32}}
			res := walk.Virtual(context.Background(), inst.NewModel, walk.Config{
				Walkers:    6,
				MasterSeed: 11,
				Portfolio:  []csp.Factory{adaptive.Factory(adaptive.Params{}), tabu.Factory(tabu.Params{})},
				Allocator:  alloc,
			}, 4096)
			var fleet, perWalker, perArm csp.Stats
			for i := range res.Stats {
				fleet = fleet.Add(res.Stats[i])
				if alloc.sums != nil {
					perWalker = perWalker.Add(alloc.sums[i])
				}
			}
			for _, s := range ctrl.ArmStats() {
				perArm = perArm.Add(s)
			}
			if !reflect.DeepEqual(perWalker, fleet) {
				t.Fatalf("Σ per-walker window deltas %+v != fleet totals %+v", perWalker, fleet)
			}
			if !reflect.DeepEqual(perArm, fleet) {
				t.Fatalf("Σ per-arm attributed stats %+v != fleet totals %+v", perArm, fleet)
			}
		})
	}
}

// racingRun captures everything a racing run must reproduce bit for bit:
// the outcome, every walker's lifetime stats, and the full allocation
// schedule.
type racingRun struct {
	Solved   bool
	Winner   int
	Iters    int64
	Solution []int
	Stats    []csp.Stats
	Schedule [][]int
}

func runRacingAt(inst registry.Instance, maxPar int, window int64) racingRun {
	ctrl := race.NewController([]string{"adaptive", "tabu"}, 8)
	res := walk.Virtual(context.Background(), inst.NewModel, walk.Config{
		Walkers:        8,
		MasterSeed:     3,
		MaxParallelism: maxPar,
		Portfolio:      []csp.Factory{adaptive.Factory(adaptive.Params{}), tabu.Factory(tabu.Params{})},
		Allocator:      windowed{ctrl, window},
	}, 1<<16)
	return racingRun{
		Solved:   res.Solved,
		Winner:   res.Winner,
		Iters:    res.WinnerIterations,
		Solution: res.Solution,
		Stats:    res.Stats,
		Schedule: ctrl.Schedule(),
	}
}

// TestRacingLockstepBitIdenticalAcrossParallelism is the determinism
// acceptance test: a fixed-seed lockstep racing run must produce the
// same winner, the same per-walker stats and the same allocation
// schedule at MaxParallelism 1 and 4 (and by induction any worker
// count — the scheduler rounds are order-independent).
func TestRacingLockstepBitIdenticalAcrossParallelism(t *testing.T) {
	// Conformance-size instances solve inside one window; these are the
	// smallest instances whose 8-walker solves reliably span several
	// 32-iteration reallocation boundaries.
	for _, spec := range []registry.Spec{
		{Name: "costas", Params: map[string]int{"n": 13}},
		{Name: "allinterval", Params: map[string]int{"n": 16}},
	} {
		inst, err := registry.Default.Build(spec)
		if err != nil {
			t.Fatalf("build %v: %v", spec, err)
		}
		t.Run(spec.Name, func(t *testing.T) {
			// Window 32 forces several reallocation boundaries.
			seq := runRacingAt(inst, 1, 32)
			par := runRacingAt(inst, 4, 32)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("racing run differs across MaxParallelism:\n 1: %+v\n 4: %+v", seq, par)
			}
			if !seq.Solved {
				t.Fatal("conformance instance did not solve within the virtual budget")
			}
			if len(seq.Schedule) < 2 {
				t.Fatalf("solve spanned %d windows — too quick to exercise reallocation", len(seq.Schedule))
			}
		})
	}
}
