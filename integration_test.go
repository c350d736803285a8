package repro

// Integration tests: flows that cross module boundaries, validating that
// the pieces the paper's pipeline chains together actually agree with each
// other (solver ↔ enumerator ↔ verifier ↔ constructions ↔ ambiguity ↔
// statistics).

import (
	"context"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/cp"
	"repro/internal/csp"
	"repro/internal/radar"
	"repro/internal/ttt"
	"repro/internal/walk"
)

// TestSolverOutputsAreEnumerable: every array the AS solver finds for a
// small order must appear in the exhaustive enumeration of that order.
func TestSolverOutputsAreEnumerable(t *testing.T) {
	const n = 9
	all := map[string]bool{}
	costas.Enumerate(n, func(p []int) bool {
		all[permKey(p)] = true
		return true
	})
	if len(all) != costas.KnownCounts[n] {
		t.Fatalf("enumerator found %d arrays, published %d", len(all), costas.KnownCounts[n])
	}
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := core.Solve(context.Background(), core.Options{N: n, Seed: seed})
		if err != nil || !res.Solved {
			t.Fatalf("seed %d: %v %+v", seed, err, res)
		}
		if !all[permKey(res.Array)] {
			t.Fatalf("solver produced %v which the enumerator does not know", res.Array)
		}
	}
}

// TestAllSolversAgreeOnVerifier: all four local-search methods — driven
// through the one core facade — and the CP solver all produce arrays the
// single verifier accepts.
func TestAllSolversAgreeOnVerifier(t *testing.T) {
	const n = 11
	outputs := [][]int{}

	for _, method := range []string{"adaptive", "dialectic", "tabu", "hillclimb"} {
		res, err := core.Solve(context.Background(), core.Options{N: n, Method: method, Seed: 5})
		if err != nil || !res.Solved {
			t.Fatalf("%s failed: %v", method, err)
		}
		outputs = append(outputs, res.Array)
	}

	cps, _ := cp.New(n)
	sol, err := cps.FirstSolution()
	if err != nil || sol == nil {
		t.Fatal("CP failed")
	}
	outputs = append(outputs, sol)

	for i, p := range outputs {
		if !costas.IsCostas(p) {
			t.Fatalf("solver %d produced invalid array %v", i, p)
		}
	}
}

// TestConstructionsAreThumbtackWaveforms: algebraic constructions flow into
// the radar substrate with perfect ambiguity.
func TestConstructionsAreThumbtackWaveforms(t *testing.T) {
	for n := 3; n <= 24; n++ {
		arr := core.Construct(n)
		if arr == nil {
			continue
		}
		w, err := radar.NewWaveform(arr)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if a := radar.ComputeAmbiguity(w); !a.IsThumbtack() {
			t.Fatalf("n=%d: constructed array not thumbtack (sidelobe %d)", n, a.MaxSidelobe())
		}
	}
}

// TestCPandEnumeratorAgreeOnCounts: two independent complete solvers.
func TestCPandEnumeratorAgreeOnCounts(t *testing.T) {
	for n := 1; n <= 9; n++ {
		s, _ := cp.New(n)
		got, err := s.CountAll()
		if err != nil {
			t.Fatal(err)
		}
		if int(got) != costas.Count(n) {
			t.Fatalf("n=%d: CP %d vs enumerator %d", n, got, costas.Count(n))
		}
	}
}

// TestVirtualSpeedupPipeline: the full Figure-4 pipeline — virtual
// multi-walk samples → ttt fit → λ scaling — behaves as the paper's
// analysis predicts (λ shrinks markedly when cores double twice).
func TestVirtualSpeedupPipeline(t *testing.T) {
	const n = 13
	sample := func(cores int) []float64 {
		var xs []float64
		for r := 0; r < 25; r++ {
			res := walk.Virtual(context.Background(), func() csp.Model { return costas.New(n, costas.Options{}) },
				walk.Config{Walkers: cores, Factory: adaptive.Factory(costas.TunedParams(n)), MasterSeed: uint64(cores*100 + r)},
				0)
			if !res.Solved {
				t.Fatal("unsolved")
			}
			xs = append(xs, cluster.HA8000.Seconds(res.WinnerIterations))
		}
		return xs
	}
	fit1 := ttt.New(sample(4))
	fit4 := ttt.New(sample(16))
	if fit4.Lambda >= fit1.Lambda {
		t.Fatalf("λ did not shrink with 4× cores: %.4g vs %.4g", fit4.Lambda, fit1.Lambda)
	}
}

// TestCoreFacadeMatchesWalkDirectly: the facade must wire walk.Virtual
// faithfully (same winner and iterations for same inputs).
func TestCoreFacadeMatchesWalkDirectly(t *testing.T) {
	const n, walkers, seed = 12, 16, 77
	direct := walk.Virtual(context.Background(), func() csp.Model { return costas.New(n, costas.Options{}) },
		walk.Config{Walkers: walkers, Factory: adaptive.Factory(costas.TunedParams(n)), MasterSeed: seed}, 0)
	viaCore, err := core.Solve(context.Background(),
		core.Options{N: n, Walkers: walkers, Virtual: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if direct.WinnerIterations != viaCore.Iterations || direct.Winner != viaCore.Winner {
		t.Fatalf("facade diverges from walk.Virtual: (%d,%d) vs (%d,%d)",
			direct.Winner, direct.WinnerIterations, viaCore.Winner, viaCore.Iterations)
	}
}

func permKey(p []int) string {
	b := make([]byte, len(p))
	for i, v := range p {
		b[i] = byte(v)
	}
	return string(b)
}
