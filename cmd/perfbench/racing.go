package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

// The racing suite measures time-to-first-solution of the racing
// portfolio against the two static baselines it must dominate:
//
//	<cell>_best_static — the single best method arm given ALL the
//	                     walkers (an oracle that knew the winner up
//	                     front; racing's target).
//	<cell>_rr          — the round-robin portfolio (walkers split over
//	                     the arms for the whole run; what you run when
//	                     you don't know the winner).
//	<cell>_racing      — the bandit allocator (method=racing): starts
//	                     like rr, observes windowed stats, reallocates
//	                     walkers toward the winning arm.
//
// Every run is lockstep-virtual at fixed seeds, so ItersOp — the
// winner's virtual time, the paper's machine-independent work unit — is
// bit-reproducible on any machine and any -cpu: the CI gate compares
// iteration counts, not wall clocks. NsOp is recorded for the local
// trajectory only.
const (
	racingSeeds = 5 // fixed seeds 1..racingSeeds, averaged
	racingArms  = "adaptive,tabu"

	// racingHeadline names the cell on which -smoke additionally requires
	// racing to beat the round-robin portfolio outright (the headline
	// claim — the cell's arms differ enough that the allocator's
	// concentration visibly pays); on every cell racing must stay within
	// -maxregress of the best static arm.
	racingHeadline = "allinterval_n24"
)

// racingCells: 2 models × 2 sizes, each hard enough that a solve spans
// multiple reallocation windows (the costas n≤14-class instances solve
// inside one window, where racing degenerates to round-robin by
// construction). The walker count is part of the cell definition: the
// gate compares MEANS over 5 fixed seeds of a min-over-walkers statistic
// whose distribution is heavy-tailed, so each cell uses the fleet size
// at which its baselines are stable enough to gate against — 16 walkers
// for the costas cells (at 8 a single unlucky arm sub-fleet dominates
// the round-robin mean), 8 for the allinterval cells (at 16 the static
// oracle's min-of-16 outruns any portfolio's min-of-8 sub-fleet by
// sampling alone).
var racingCells = []struct {
	label, model string
	walkers      int
}{
	{"costas_n15", "costas n=15", 16},
	{"costas_n16", "costas n=16", 16},
	{"allinterval_n20", "allinterval n=20", 8},
	{"allinterval_n24", "allinterval n=24", 8},
}

// racingSolve runs one fixed-seed lockstep solve and returns the
// winner's virtual time (time-to-first-solution in iterations).
func racingSolve(spec string, walkers int, seed uint64) (int64, time.Duration, error) {
	start := time.Now()
	res, err := core.SolveSpec(context.Background(), spec, core.Options{
		Walkers: walkers,
		Virtual: true,
		Seed:    seed,
	})
	if err != nil {
		return 0, 0, err
	}
	if !res.Solved {
		return 0, 0, fmt.Errorf("spec %q seed %d did not solve", spec, seed)
	}
	return res.Iterations, time.Since(start), nil
}

// racingMean averages makespan and wall time over the fixed seed set.
func racingMean(spec string, walkers int) (iters float64, ns float64, err error) {
	var sumIters int64
	var sumWall time.Duration
	for seed := uint64(1); seed <= racingSeeds; seed++ {
		it, wall, err := racingSolve(spec, walkers, seed)
		if err != nil {
			return 0, 0, err
		}
		sumIters += it
		sumWall += wall
	}
	return float64(sumIters) / racingSeeds, float64(sumWall.Nanoseconds()) / racingSeeds, nil
}

// runRacingSuite produces the racing/* rows.
func runRacingSuite() ([]Result, error) {
	out := make([]Result, 0, 3*len(racingCells))
	row := func(name string, iters, ns float64) {
		fmt.Fprintf(os.Stderr, "%-32s %12.0f iters/op (%.0f ns/op)\n", name, iters, ns)
		out = append(out, Result{Name: name, NsOp: ns, ItersOp: iters})
	}
	for _, cell := range racingCells {
		// Best static arm: every walker on one method, best arm wins.
		bestIters, bestNs := 0.0, 0.0
		for _, arm := range []string{"adaptive", "tabu"} {
			iters, ns, err := racingMean(cell.model+" method="+arm, cell.walkers)
			if err != nil {
				return out, err
			}
			if bestIters == 0 || iters < bestIters {
				bestIters, bestNs = iters, ns
			}
		}
		row("racing/"+cell.label+"_best_static", bestIters, bestNs)

		rrIters, rrNs, err := racingMean(cell.model+" method=portfolio portfolio="+racingArms, cell.walkers)
		if err != nil {
			return out, err
		}
		row("racing/"+cell.label+"_rr", rrIters, rrNs)

		raceIters, raceNs, err := racingMean(cell.model+" method=racing portfolio="+racingArms, cell.walkers)
		if err != nil {
			return out, err
		}
		row("racing/"+cell.label+"_racing", raceIters, raceNs)
	}
	return out, nil
}

// gateRacing applies the -smoke gates to racing/* rows: every measured
// row's iters/op must equal the same row in the baseline file (fixed-seed
// lockstep makespans are bit-reproducible, so any difference is a change
// of racing's trajectories, not noise; rows the baseline lacks are not
// compared), on every cell racing's mean makespan must stay within
// maxregress of the best static arm's, and on the headline cell it must
// beat the round-robin portfolio outright. base may be nil. Returns true
// when a gate failed.
func gateRacing(results []Result, base *File, maxregress float64) bool {
	iters := map[string]float64{}
	for _, r := range results {
		iters[r.Name] = r.ItersOp
	}
	failed := false
	if base != nil {
		for _, b := range base.Benchmarks {
			got, ok := iters[b.Name]
			if ok && suiteOf(b.Name) == "racing" && got != b.ItersOp {
				fmt.Fprintf(os.Stderr,
					"perfbench: FAIL: %s needs %.1f iters/op vs the baseline's %.1f — fixed-seed racing trajectories changed\n",
					b.Name, got, b.ItersOp)
				failed = true
			}
		}
	}
	for _, cell := range racingCells {
		race := iters["racing/"+cell.label+"_racing"]
		static := iters["racing/"+cell.label+"_best_static"]
		rr := iters["racing/"+cell.label+"_rr"]
		if race <= 0 || static <= 0 || rr <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: racing rows missing for cell %s\n", cell.label)
			failed = true
			continue
		}
		if race > static*(1+maxregress) {
			fmt.Fprintf(os.Stderr,
				"perfbench: FAIL: racing on %s needs %.0f iters vs best static arm's %.0f (%.2fx, tolerance %.0f%%)\n",
				cell.label, race, static, race/static, 100*maxregress)
			failed = true
		}
		if cell.label == racingHeadline && race > rr {
			fmt.Fprintf(os.Stderr,
				"perfbench: FAIL: racing on headline %s needs %.0f iters vs round-robin's %.0f — the allocator must beat the static portfolio it replaces\n",
				cell.label, race, rr)
			failed = true
		}
	}
	return failed
}
