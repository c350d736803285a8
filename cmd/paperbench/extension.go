package main

import (
	"context"
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/walk"
)

// runExtension measures the §VI future-work implementation: dependent
// multi-walk with a shared crossroads pool vs the paper's independent
// scheme, at equal walker counts. This is an extension beyond the paper's
// evaluation (the paper only sketches the design goals), so there are no
// reference numbers — the interesting output is the relative makespan and
// the communication volume, which goal (1) of §VI demands stay tiny.
func runExtension(sc Scale) {
	banner("Extension — §VI dependent multi-walk (crossroads pool)")
	sizes := sc.AblationSizes
	runs := sc.AblationRuns
	const walkers = 16
	note("sizes %v, %d runs, %d walkers; independent vs cooperative (pool=8, restart-from-pool p=0.5)", sizes, runs, walkers)

	tb := report.NewTable("", "n", "indep avg iters", "coop avg iters", "coop/indep", "offers/run", "accepted", "pool restarts")
	for _, n := range sizes {
		indep := stats.NewSample()
		coop := stats.NewSample()
		var offers, accepted, poolRestarts int64
		for r := 0; r < runs; r++ {
			seed := uint64(n)*500_009 + uint64(r)*37 + 1
			ri := walk.Virtual(context.Background(), modelFactory(n), walk.Config{
				Walkers: walkers, Factory: tunedFactory(n), MasterSeed: seed}, 0)
			if ri.Solved {
				indep.Add(float64(ri.WinnerIterations))
			}
			// The cooperative scheduler owns the restart policy, so its
			// engines run with internal restarts disabled.
			coopParams := costas.TunedParams(n)
			coopParams.RestartLimit = -1
			rc := walk.Virtual(context.Background(), modelFactory(n), walk.Config{
				Walkers: walkers, Factory: adaptive.Factory(coopParams), MasterSeed: seed,
				Crossroads: &walk.Crossroads{}}, 0)
			if rc.Solved {
				coop.Add(float64(rc.WinnerIterations))
			}
			offers += rc.Offers
			accepted += rc.Accepted
			poolRestarts += rc.PoolRestart
		}
		ratio := 0.0
		if indep.Mean() > 0 {
			ratio = coop.Mean() / indep.Mean()
		}
		tb.AddRow(fmt.Sprint(n),
			report.Count(int64(indep.Mean())), report.Count(int64(coop.Mean())),
			fmt.Sprintf("%.2f", ratio),
			report.Count(offers/int64(runs)), report.Count(accepted/int64(runs)),
			report.Count(poolRestarts/int64(runs)))
	}
	fmt.Print(tb.String())
	note("")
	note("communication stays tiny (accepted ≪ offers; a few pooled restarts per run),")
	note("satisfying §VI's goal (1); whether crossroads help depends on instance size —")
	note("at these sizes independent restarts are already near-optimal because runtimes")
	note("are near-exponential (Fig. 4), which is precisely why the paper left")
	note("cooperation as future work.")
}
