package core

import (
	"context"
	"reflect"
	"testing"
)

// TestSolveSpecRacingEndToEnd drives method=racing through the public
// spec pipeline: the run must solve, name the winning arm, attribute the
// fleet's work to arms without losing an iteration, and reproduce bit
// for bit at a fixed seed.
func TestSolveSpecRacingEndToEnd(t *testing.T) {
	const spec = "costas n=12 method=racing portfolio=adaptive,tabu"
	opts := Options{Walkers: 8, Virtual: true, Seed: 5}

	first, err := SolveSpec(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Solved {
		t.Fatalf("racing solve failed: %+v", first)
	}
	if first.WinnerMethod != MethodAdaptive && first.WinnerMethod != MethodTabu {
		t.Fatalf("winner method %q is not one of the racing arms", first.WinnerMethod)
	}

	var attributed, total int64
	for _, s := range first.MethodStats {
		attributed += s.Iterations
	}
	for _, s := range first.Stats {
		total += s.Iterations
	}
	if attributed != total || total != first.TotalIterations {
		t.Fatalf("arm attribution lost work: per-arm %d, per-walker %d, total %d",
			attributed, total, first.TotalIterations)
	}

	// Second identical call: nothing the first solve did may change the
	// outcome.
	second, err := SolveSpec(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Array, second.Array) ||
		first.Iterations != second.Iterations ||
		first.Winner != second.Winner ||
		first.WinnerMethod != second.WinnerMethod {
		t.Fatalf("fixed-seed racing solve not reproducible:\n first: %+v\nsecond: %+v", first, second)
	}
}

// TestSolveSpecRacingRejectsBadPortfolio: racing needs at least one arm
// it can build.
func TestSolveSpecRacingRejectsBadPortfolio(t *testing.T) {
	_, err := SolveSpec(context.Background(), "costas n=12 method=racing portfolio=nosuch",
		Options{Walkers: 4, Virtual: true, Seed: 1})
	if err == nil {
		t.Fatal("racing with an unknown arm method was accepted")
	}
}

// TestRacingEqualsPortfolioOnTwoArmCAP pins what racing does on the
// paper's problem with two arms: on costas n=15 at 16 walkers no arm
// leads decisively for long enough, no walker migrates, and the racing
// run is the round-robin portfolio run — the whole Result, not just the
// makespan.
func TestRacingEqualsPortfolioOnTwoArmCAP(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		opts := Options{Walkers: 16, Virtual: true, Seed: seed}
		racing, err := SolveSpec(context.Background(), "costas n=15 method=racing portfolio=adaptive,tabu", opts)
		if err != nil {
			t.Fatal(err)
		}
		static, err := SolveSpec(context.Background(), "costas n=15 method=portfolio portfolio=adaptive,tabu", opts)
		if err != nil {
			t.Fatal(err)
		}
		racing.WallTime, static.WallTime = 0, 0
		if !reflect.DeepEqual(racing, static) {
			t.Fatalf("seed %d: racing differs from the round-robin portfolio:\n racing: %+v\n static: %+v", seed, racing, static)
		}
	}
}
