package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/models/nqueens"
	"repro/internal/models/thumbtack"
	"repro/internal/registry"
)

func TestParseRunSpecSplitsOptionsFromModelParams(t *testing.T) {
	inst, opts, err := ParseRunSpec("name=nqueens n=32 method=tabu walkers=4 seed=9 maxiter=5000 checkevery=16 virtual=true", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Entry.Name != "nqueens" || inst.Spec.Params["n"] != 32 {
		t.Fatalf("instance %+v", inst.Spec)
	}
	want := Options{Method: "tabu", Walkers: 4, Seed: 9, MaxIterations: 5000, CheckEvery: 16, Virtual: true}
	if !reflect.DeepEqual(opts, want) {
		t.Fatalf("options %+v, want %+v", opts, want)
	}

	// Spec keys override the base; untouched base fields survive.
	_, opts, err = ParseRunSpec("costas n=10 walkers=2", Options{Walkers: 8, Method: "hillclimb", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Walkers != 2 || opts.Method != "hillclimb" || opts.Seed != 3 {
		t.Fatalf("base/spec merge wrong: %+v", opts)
	}
}

func TestParseRunSpecRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"",                          // no model
		"nosuchmodel n=4",           // unknown model
		"costas n=10 bogus=zzz",     // unknown string key
		"costas n=10 virtual=maybe", // bad bool
		"costas n=10 seed=-3",       // negative seed
		"costas n=10 seed=zebra",    // non-numeric seed
		"nqueens k=4",               // wrong model parameter
	} {
		if _, _, err := ParseRunSpec(bad, Options{}); err == nil {
			t.Errorf("ParseRunSpec(%q) accepted a bad spec", bad)
		}
	}

	// A bad VALUE of a known option key must blame the value, not claim
	// the key is unknown while listing it as supported.
	_, _, err := ParseRunSpec("costas n=10 walkers=two", Options{})
	if err == nil || !strings.Contains(err.Error(), `walkers="two"`) {
		t.Errorf("walkers=two error blames the wrong thing: %v", err)
	}
	// ... including integer values of the string-typed option keys.
	_, _, err = ParseRunSpec("nqueens n=16 method=2", Options{})
	if err == nil || !strings.Contains(err.Error(), `method="2"`) {
		t.Errorf("method=2 error blames the wrong thing: %v", err)
	}
	_, _, err = ParseRunSpec("nqueens n=16 portfolio=1", Options{})
	if err == nil || !strings.Contains(err.Error(), `portfolio="1"`) {
		t.Errorf("portfolio=1 error blames the wrong thing: %v", err)
	}
}

// TestParseRunSpecFullRangeSeed: seeds in the upper half of uint64 are
// valid everywhere else (-seed flag, HTTP options) and must be reachable
// from the spec grammar too.
func TestParseRunSpecFullRangeSeed(t *testing.T) {
	_, opts, err := ParseRunSpec("costas n=10 seed=18446744073709551615", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != ^uint64(0) {
		t.Fatalf("seed = %d, want MaxUint64", opts.Seed)
	}
}

// TestSolveSpecMatchesSolveForCostas: the registry route must be the
// exact run core.Solve performs — same tuned parameters, same seed
// derivation, bit-identical result. This is the acceptance guarantee that
// the rewire does not move any paper numbers.
func TestSolveSpecMatchesSolveForCostas(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		opts   Options // options of the SolveSpec calls
		direct Options // the equivalent core.Solve options
	}{
		{"costas n=12 seed=5", Options{}, Options{N: 12, Seed: 5}},
		// A fixed-seed racing solve is a pure function of its inputs too:
		// the second identical call must not learn from the first.
		{"costas n=17 method=racing", Options{Walkers: 8, Virtual: true, Seed: 3},
			Options{N: 17, Method: MethodRacing, Walkers: 8, Virtual: true, Seed: 3}},
	} {
		direct, err := Solve(context.Background(), tc.direct)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 2; call++ {
			viaSpec, err := SolveSpec(context.Background(), tc.spec, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !viaSpec.Solved || !reflect.DeepEqual(direct.Array, viaSpec.Array) {
				t.Fatalf("%s call %d: registry route diverges from Solve: %v vs %v", tc.spec, call, direct.Array, viaSpec.Array)
			}
			if direct.Iterations != viaSpec.Iterations || direct.TotalIterations != viaSpec.TotalIterations ||
				!reflect.DeepEqual(direct.Stats, viaSpec.Stats) {
				t.Fatalf("%s call %d: registry route changed the trajectory: %d vs %d iterations (total %d vs %d)",
					tc.spec, call, direct.Iterations, viaSpec.Iterations, direct.TotalIterations, viaSpec.TotalIterations)
			}
		}
	}
}

func TestSolveSpecSolvesEveryRegisteredModel(t *testing.T) {
	for _, spec := range []string{
		"costas n=10 seed=2",
		"nqueens n=16 seed=2",
		"allinterval n=10 seed=2",
		"magicsquare k=4 seed=2",
		"thumbtack n=9 seed=2",
	} {
		res, err := SolveSpec(context.Background(), spec, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !res.Solved {
			t.Fatalf("%s: unsolved", spec)
		}
	}
}

func TestSolveSpecValidatesWithRegistryBackstop(t *testing.T) {
	// A solved run on a correct model always passes the validator; this
	// exercises the backstop wiring by checking a solution verifies
	// through the instance's own Valid.
	res, err := SolveSpec(context.Background(), "thumbtack n=9 seed=4", Options{})
	if err != nil || !res.Solved {
		t.Fatalf("solve failed: %v", err)
	}
	if !thumbtack.Valid(res.Array) {
		t.Fatalf("solution %v not a thumbtack", res.Array)
	}
}

func TestBatchSpecJobs(t *testing.T) {
	jobs := []BatchJob{
		{Spec: "costas n=11"},
		{Spec: "nqueens n=16 method=tabu"},
		{Spec: "magicsquare k=4 seed=6"},
		{Options: Options{N: 10}}, // plain CAP job still works alongside
	}
	res, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if !jr.Result.Solved {
			t.Fatalf("job %d unsolved", i)
		}
	}
	if res.Stats.Solved != len(jobs) {
		t.Fatalf("stats solved %d, want %d", res.Stats.Solved, len(jobs))
	}
}

// TestBatchSpecCostasMatchesBatchCAP: a "costas n=10" spec job solves
// through the registry instance path, a BatchCAP job through Solve; the
// two must be the same run job for job under one master seed.
func TestBatchSpecCostasMatchesBatchCAP(t *testing.T) {
	specJobs := make([]BatchJob, 8)
	for i := range specJobs {
		specJobs[i] = BatchJob{Spec: "costas n=10"}
	}
	capJobs := BatchCAP([]int{10, 10, 10, 10, 10, 10, 10, 10}, Options{})
	opts := BatchOptions{Concurrency: 1, MasterSeed: 4}
	viaSpec, err := SolveBatch(context.Background(), specJobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaCAP, err := SolveBatch(context.Background(), capJobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if viaSpec.Stats.Errors != 0 || viaSpec.Stats.Solved != len(specJobs) {
		t.Fatalf("batch stats %+v", viaSpec.Stats)
	}
	for i := range specJobs {
		a, b := viaSpec.Jobs[i].Result, viaCAP.Jobs[i].Result
		if !reflect.DeepEqual(a.Array, b.Array) || a.Iterations != b.Iterations ||
			a.TotalIterations != b.TotalIterations || !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Fatalf("job %d: spec route %+v differs from BatchCAP route %+v", i, a, b)
		}
	}
}

// TestOptionKeysAreReserved: every key ParseRunSpec claims must be in
// registry.ReservedKeys, so Register can refuse model parameters that
// would shadow it — the two lists live in different packages and this
// pins them together.
func TestOptionKeysAreReserved(t *testing.T) {
	reserved := map[string]bool{}
	for _, k := range registry.ReservedKeys {
		reserved[k] = true
	}
	for _, k := range OptionKeys() {
		if !reserved[k] {
			t.Errorf("option key %q is not in registry.ReservedKeys", k)
		}
	}
}

func TestBatchSpecErrorsAreConfined(t *testing.T) {
	jobs := []BatchJob{
		{Spec: "nosuchmodel n=4"},
		{Spec: "nqueens n=16", NewModel: func() csp.Model { return nqueens.New(16) }},
		{Spec: "costas n=10"},
	}
	res, err := SolveBatch(context.Background(), jobs, BatchOptions{MasterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Err == nil {
		t.Fatal("unknown model spec did not fail its job")
	}
	if res.Jobs[1].Err == nil {
		t.Fatal("Spec+NewModel job did not fail")
	}
	if res.Jobs[2].Err != nil || !res.Jobs[2].Result.Solved {
		t.Fatalf("good job sunk by bad neighbours: %+v", res.Jobs[2])
	}
}
