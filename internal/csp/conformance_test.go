package csp_test

// Cross-engine conformance suite: every csp.Engine implementation in the
// repository must (a) solve an easy instance of EVERY registered model
// deterministically from a fixed seed, and (b) honour the Step/Solve
// contract — a Step-driven run follows the same trajectory iteration for
// iteration as a monolithic Solve from the same seed, whatever the
// quantum. This is what lets the multi-walk runner, the virtual lockstep
// cluster, the cooperative scheduler and the HTTP service drive any
// method on any model interchangeably.
//
// The model list is the full registry catalogue (internal/registry), each
// at the small conformance size its entry declares — adding a model to
// the registry automatically adds it to this engine×model cross-product.

import (
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/dialectic"
	"repro/internal/hillclimb"
	"repro/internal/models/allinterval"
	"repro/internal/models/nqueens"
	"repro/internal/registry"
	"repro/internal/tabu"
)

type conformanceModel struct {
	name     string
	newModel func() csp.Model
	valid    func(sol []int) bool
}

func conformanceModels() []conformanceModel {
	var out []conformanceModel
	for _, e := range registry.All() {
		if e.Conformance == nil {
			continue
		}
		inst, err := registry.Build(registry.Spec{Name: e.Name, Params: e.Conformance})
		if err != nil {
			panic(err) // a broken conformance declaration is a bug, not a skip
		}
		out = append(out, conformanceModel{
			name:     inst.Spec.String(),
			newModel: inst.NewModel,
			valid:    inst.Valid,
		})
	}
	return out
}

func conformanceEngines() map[string]csp.Factory {
	return map[string]csp.Factory{
		"adaptive":  adaptive.Factory(adaptive.DefaultParams()),
		"tabu":      tabu.Factory(tabu.Params{}),
		"hillclimb": hillclimb.Factory(hillclimb.Params{}),
		"dialectic": dialectic.Factory(dialectic.Params{}),
	}
}

const conformanceSeed = 42

// TestEnginesSolveDeterministically: same seed → same solution and same
// counters, for every engine on every model, and the solution verifies.
func TestEnginesSolveDeterministically(t *testing.T) {
	for engineName, factory := range conformanceEngines() {
		for _, m := range conformanceModels() {
			t.Run(engineName+"/"+m.name, func(t *testing.T) {
				e1 := factory(m.newModel(), conformanceSeed)
				e2 := factory(m.newModel(), conformanceSeed)
				if !e1.Solve() || !e2.Solve() {
					t.Fatal("engine did not solve an easy instance")
				}
				if !e1.Solved() || e1.Exhausted() {
					t.Fatalf("inconsistent termination state: solved=%v exhausted=%v",
						e1.Solved(), e1.Exhausted())
				}
				if e1.Cost() != 0 {
					t.Fatalf("solved engine reports cost %d", e1.Cost())
				}
				s1, s2 := e1.Solution(), e2.Solution()
				if !m.valid(s1) {
					t.Fatalf("invalid solution %v", s1)
				}
				if !reflect.DeepEqual(s1, s2) {
					t.Fatalf("same seed, different solutions: %v vs %v", s1, s2)
				}
				if e1.Stats() != e2.Stats() {
					t.Fatalf("same seed, different stats: %+v vs %+v", e1.Stats(), e2.Stats())
				}
				if e1.Stats().Iterations <= 0 {
					t.Fatal("no iterations recorded")
				}
			})
		}
	}
}

// TestStepMatchesSolveIterationForIteration: driving an engine by Step
// with an awkward quantum must reproduce the Solve trajectory exactly —
// same solution, same final counters.
func TestStepMatchesSolveIterationForIteration(t *testing.T) {
	for engineName, factory := range conformanceEngines() {
		for _, m := range conformanceModels() {
			t.Run(engineName+"/"+m.name, func(t *testing.T) {
				whole := factory(m.newModel(), conformanceSeed)
				if !whole.Solve() {
					t.Fatal("Solve-driven run failed")
				}

				stepped := factory(m.newModel(), conformanceSeed)
				for !stepped.Solved() && !stepped.Exhausted() {
					stepped.Step(7) // deliberately not a divisor of anything
				}
				if !stepped.Solved() {
					t.Fatal("Step-driven run failed")
				}

				if got, want := stepped.Stats(), whole.Stats(); got != want {
					t.Fatalf("Step-driven stats diverge from Solve-driven:\n got %+v\nwant %+v", got, want)
				}
				if got, want := stepped.Solution(), whole.Solution(); !reflect.DeepEqual(got, want) {
					t.Fatalf("Step-driven solution diverges: %v vs %v", got, want)
				}
			})
		}
	}
}

// TestStepHonoursBudget: a budgeted engine must flag exhaustion instead of
// overrunning, for every method, and report Solved false.
func TestStepHonoursBudget(t *testing.T) {
	hard := func() csp.Model { return costas.New(19, costas.Options{}) }
	for engineName, factory := range map[string]csp.Factory{
		"adaptive":  adaptive.Factory(func() adaptive.Params { p := adaptive.DefaultParams(); p.MaxIterations = 50; return p }()),
		"tabu":      tabu.Factory(tabu.Params{MaxIterations: 50}),
		"hillclimb": hillclimb.Factory(hillclimb.Params{MaxIterations: 50}),
		"dialectic": dialectic.Factory(dialectic.Params{MaxIterations: 50}),
	} {
		t.Run(engineName, func(t *testing.T) {
			e := factory(hard(), conformanceSeed)
			if e.Solve() {
				t.Skip("improbably lucky run")
			}
			if !e.Exhausted() {
				t.Fatal("budgeted engine not exhausted")
			}
			if e.Stats().Iterations > 50 {
				t.Fatalf("budget overrun: %d iterations", e.Stats().Iterations)
			}
		})
	}
}

// TestRestartableContract: every engine implements csp.Restartable and
// resumes cleanly from an externally supplied configuration.
func TestRestartableContract(t *testing.T) {
	for engineName, factory := range conformanceEngines() {
		t.Run(engineName, func(t *testing.T) {
			m := costas.New(10, costas.Options{})
			e := factory(m, conformanceSeed)
			rs, ok := e.(csp.Restartable)
			if !ok {
				t.Fatalf("%s engine does not implement csp.Restartable", engineName)
			}
			e.Step(3)
			restartsBefore := e.Stats().Restarts
			cfg := make([]int, 10)
			for i := range cfg {
				cfg[i] = 9 - i // a fixed (non-Costas) permutation
			}
			rs.RestartFrom(cfg)
			if e.Stats().Restarts != restartsBefore+1 {
				t.Fatal("RestartFrom did not count a restart")
			}
			if !e.Solve() || !costas.IsCostas(e.Solution()) {
				t.Fatal("engine did not recover after RestartFrom")
			}

			defer func() {
				if recover() == nil {
					t.Fatal("RestartFrom accepted a non-permutation")
				}
			}()
			rs.RestartFrom(make([]int, 10)) // all zeros: not a permutation
		})
	}
}

// restartable asserts an engine into csp.Restartable (every method in the
// repository implements it; TestRestartableContract enforces that).
func restartable(t *testing.T, e csp.Engine) csp.Restartable {
	t.Helper()
	rs, ok := e.(csp.Restartable)
	if !ok {
		t.Fatalf("%T does not implement csp.Restartable", e)
	}
	return rs
}

// TestRestartFromInstallsCopyAndRebinds: RestartFrom must copy the given
// configuration (never alias caller storage) and rebind the model so the
// engine's Cost reflects it immediately — the invariants the cooperative
// scheduler and the batch engine pool both rely on.
func TestRestartFromInstallsCopyAndRebinds(t *testing.T) {
	const n = 10
	for engineName, factory := range conformanceEngines() {
		t.Run(engineName, func(t *testing.T) {
			e := factory(costas.New(n, costas.Options{}), conformanceSeed)
			rs := restartable(t, e)
			e.Step(5)

			cfg := make([]int, n)
			for i := range cfg {
				cfg[i] = n - 1 - i // a fixed (non-Costas) permutation
			}
			// The cost RestartFrom must expose: the same configuration
			// bound to an independent model instance.
			ref := costas.New(n, costas.Options{})
			ref.Bind(cfg)
			want := ref.Cost()

			rs.RestartFrom(cfg)
			if got := e.Cost(); got != want {
				t.Fatalf("model not rebound: Cost() = %d after RestartFrom, want %d", got, want)
			}

			// Clobber the caller's slice; an engine that aliased it would
			// now be computing over garbage.
			for i := range cfg {
				cfg[i] = 0
			}
			if got := e.Cost(); got != want {
				t.Fatalf("engine aliases caller storage: Cost() %d → %d after caller mutation", want, got)
			}
			if !e.Solve() || !costas.IsCostas(e.Solution()) {
				t.Fatal("engine did not recover after caller mutated the restart slice")
			}
		})
	}
}

// TestRestartFromRecomputesSolvedBothWays: restarting onto a solution must
// mark the engine solved with cost 0, and restarting a solved engine onto
// a non-solution must clear the flag — the solved state is a function of
// the installed configuration, not of history.
func TestRestartFromRecomputesSolvedBothWays(t *testing.T) {
	const n = 10
	sol := costas.First(n)
	bad := make([]int, n)
	for i := range bad {
		bad[i] = n - 1 - i
	}
	for engineName, factory := range conformanceEngines() {
		t.Run(engineName, func(t *testing.T) {
			e := factory(costas.New(n, costas.Options{}), conformanceSeed)
			rs := restartable(t, e)

			rs.RestartFrom(sol)
			if !e.Solved() || e.Cost() != 0 {
				t.Fatalf("restart onto a solution: solved=%v cost=%d", e.Solved(), e.Cost())
			}
			got := e.Solution()
			for i := range sol {
				if got[i] != sol[i] {
					t.Fatalf("solved engine does not report the installed solution: %v vs %v", got, sol)
				}
			}

			rs.RestartFrom(bad)
			if e.Solved() {
				t.Fatal("restart off a solution left the solved flag set")
			}
			if e.Cost() == 0 {
				t.Fatal("non-solution restart reports cost 0")
			}
		})
	}
}

// TestRestartFromClearsPerRunState: after RestartFrom, the walk must
// resume as if freshly started from the installed configuration — cleared
// tabu marks, stall counters and restart clocks. Observable consequence:
// two same-seed engines that diverge only in how much they ran *before*
// restarting from the same configuration still make their restart land on
// identical model state (same cost, same configuration); and restart
// clocks are re-armed, so an immediate second restart is well-defined and
// the engine still solves.
func TestRestartFromClearsPerRunState(t *testing.T) {
	const n = 10
	cfg := make([]int, n)
	for i := range cfg {
		cfg[i] = (i + 3) % n // a fixed rotation permutation
	}
	for engineName, factory := range conformanceEngines() {
		t.Run(engineName, func(t *testing.T) {
			short := factory(costas.New(n, costas.Options{}), conformanceSeed)
			long := factory(costas.New(n, costas.Options{}), conformanceSeed)
			restartable(t, short).RestartFrom(cfg)
			long.Step(40) // accumulate tabu marks / stall counters
			restartable(t, long).RestartFrom(cfg)
			if short.Cost() != long.Cost() {
				t.Fatalf("restart state depends on pre-restart history: cost %d vs %d",
					short.Cost(), long.Cost())
			}

			// Back-to-back restarts must each count and leave the engine
			// able to solve — the batch pool re-arms engines repeatedly.
			e := factory(costas.New(n, costas.Options{}), conformanceSeed)
			rs := restartable(t, e)
			for k := 0; k < 3; k++ {
				rs.RestartFrom(cfg)
			}
			if got := e.Stats().Restarts; got < 3 {
				t.Fatalf("back-to-back restarts undercounted: %d < 3", got)
			}
			if !e.Solve() || !costas.IsCostas(e.Solution()) {
				t.Fatal("engine cannot solve after repeated re-arms")
			}
		})
	}
}

// TestStatsSubAttributesPerSolveWork: the Stats.Sub delta used by the
// batch engine pool must attribute exactly the work done since the
// snapshot, for every engine.
func TestStatsSubAttributesPerSolveWork(t *testing.T) {
	const n = 11
	for engineName, factory := range conformanceEngines() {
		t.Run(engineName, func(t *testing.T) {
			e := factory(costas.New(n, costas.Options{}), conformanceSeed)
			rs := restartable(t, e)
			if !e.Solve() {
				t.Fatal("first solve failed")
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = (i * 7) % n // 7 coprime to 11: a permutation
			}
			rs.RestartFrom(perm)
			base := e.Stats()
			if e.Solved() {
				t.Skip("restart configuration is improbably a solution")
			}
			if !e.Solve() {
				t.Fatal("second solve failed")
			}
			delta := e.Stats().Sub(base)
			if delta.Iterations <= 0 {
				t.Fatalf("delta shows no work: %+v", delta)
			}
			if total := e.Stats().Iterations; delta.Iterations >= total {
				t.Fatalf("delta (%d) not smaller than lifetime total (%d)", delta.Iterations, total)
			}
			if delta.Restarts != e.Stats().Restarts-base.Restarts {
				t.Fatalf("Sub is not field-wise: %+v", delta)
			}
		})
	}
}

// trajectoryFingerprint steps the engine one iteration at a time and hashes
// the (total iterations, cost) pair after every step — the procedure the
// costas goldens (internal/costas/parity_test.go) were captured with.
func trajectoryFingerprint(e csp.Engine, steps int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for k := 0; k < steps; k++ {
		if e.Step(1) || e.Exhausted() {
			break
		}
		it := e.Stats().Iterations
		c := e.Cost()
		for b := 0; b < 8; b++ {
			buf[b] = byte(it >> (8 * b))
			buf[8+b] = byte(int64(c) >> (8 * b))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestPlainModelTrajectoryGoldens pins every engine's trajectory on two
// plain models (no ScanSwaps, SwapDelta or CommitSwap, so the engines probe
// through CostIfSwap and commit through ExecSwap). The fingerprints were
// captured before the engines' probe chains were collapsed into csp.Probe;
// a failure means the plain probe path changed solver behaviour.
func TestPlainModelTrajectoryGoldens(t *testing.T) {
	cases := []struct {
		engine string
		model  string
		n      int
		steps  int
		want   uint64
	}{
		{"adaptive", "allinterval", 16, 3000, 0x67cc763befd25866},
		{"tabu", "allinterval", 16, 600, 0x2999ca0257328b5f},
		{"hillclimb", "allinterval", 16, 6000, 0x34c1acabb552fe51},
		{"dialectic", "allinterval", 16, 200, 0x4466dadc0d8a716d},
		{"adaptive", "nqueens", 32, 3000, 0x14d12122f06958e2},
		{"tabu", "nqueens", 32, 300, 0xa3d2adff57ee8439},
		{"hillclimb", "nqueens", 32, 6000, 0x1d314314f542edf9},
		{"dialectic", "nqueens", 32, 200, 0x8b53c2abc6bce1a7},
	}
	const seed = 24680
	engines := conformanceEngines()
	for _, tc := range cases {
		var m csp.Model
		switch tc.model {
		case "allinterval":
			m = allinterval.New(tc.n)
		case "nqueens":
			m = nqueens.New(tc.n)
		}
		if _, ok := m.(csp.ScanModel); ok {
			t.Fatalf("%s implements csp.ScanModel; this test pins the plain probe path", tc.model)
		}
		e := engines[tc.engine](m, seed)
		if got := trajectoryFingerprint(e, tc.steps); got != tc.want {
			t.Errorf("%s on %s n=%d seed=%d: trajectory fingerprint 0x%016x, golden 0x%016x",
				tc.engine, tc.model, tc.n, seed, got, tc.want)
		}
	}
}
