package walk

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/dialectic"
	"repro/internal/hillclimb"
	"repro/internal/tabu"
)

// lockstepOutcome is everything a lockstep run must reproduce exactly:
// the outcome and an FNV-64a fingerprint of every walker's csp.Stats.
type lockstepOutcome struct {
	Winner           int
	WinnerIterations int64
	TotalIterations  int64
	Solution         []int
	StatsFNV         uint64
}

func statsFNV(stats []csp.Stats) uint64 {
	h := fnv.New64a()
	for _, s := range stats {
		fmt.Fprintf(h, "%+v;", s)
	}
	return h.Sum64()
}

func outcomeOf(r Result) lockstepOutcome {
	return lockstepOutcome{
		Winner:           r.Winner,
		WinnerIterations: r.WinnerIterations,
		TotalIterations:  r.TotalIterations,
		Solution:         r.Solution,
		StatsFNV:         statsFNV(r.Stats),
	}
}

// racingConfig is a two-arm racing run under the rotating allocator,
// which migrates every walker at every window boundary.
func racingConfig(n, walkers int, seed uint64, quantum int, window int64) Config {
	cfg := capConfig(n, walkers, seed)
	cfg.CheckEvery = quantum
	cfg.Portfolio = []csp.Factory{adaptive.Factory(costas.TunedParams(n)), tabu.Factory(tabu.Params{})}
	cfg.Allocator = rotating{walkers: walkers, arms: 2, window: window}
	return cfg
}

// TestLockstepOutcomeGoldens pins the exact outcome of every lockstep
// scheduling shape — independent, portfolio, virtual budgets and racing
// windows, including window caps and a budget that are not a multiple of
// the quantum and a budget that ends inside a window. The expected values
// were recorded before the scheduler's window loop was unified, except
// budget/inside-quantum, recorded when budgets became exact; any change
// to them is a change of trajectory.
func TestLockstepOutcomeGoldens(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func() Result
		want lockstepOutcome
	}{
		{
			name: "independent",
			run: func() Result {
				cfg := capConfig(13, 16, 77)
				cfg.CheckEvery = 8
				return Virtual(ctx, capFactory(13), cfg, 0)
			},
			want: lockstepOutcome{Winner: 9, WinnerIterations: 40, TotalIterations: 640, Solution: []int{10, 3, 8, 9, 12, 4, 2, 6, 1, 0, 11, 5, 7}, StatsFNV: 0xf645bd98a0a0491c},
		},
		{
			name: "portfolio",
			run: func() Result {
				cfg := Config{Walkers: 8, CheckEvery: 16, MasterSeed: 5, Portfolio: []csp.Factory{
					adaptive.Factory(costas.TunedParams(12)),
					tabu.Factory(tabu.Params{}),
					hillclimb.Factory(hillclimb.Params{}),
					dialectic.Factory(dialectic.Params{}),
				}}
				return Virtual(ctx, capFactory(12), cfg, 0)
			},
			want: lockstepOutcome{Winner: 7, WinnerIterations: 42, TotalIterations: 375, Solution: []int{2, 1, 10, 6, 8, 9, 0, 3, 7, 5, 11, 4}, StatsFNV: 0xad688bf7fb1753e0},
		},
		{
			name: "budget",
			run: func() Result {
				return Virtual(ctx, capFactory(18), capConfig(18, 4, 7), 128)
			},
			want: lockstepOutcome{Winner: -1, TotalIterations: 512, StatsFNV: 0x3ea7b41408d0a124},
		},
		{
			// A budget that is not a multiple of the quantum (64) cuts
			// each walker's last quantum short: 4 × 100 iterations.
			name: "budget/inside-quantum",
			run: func() Result {
				return Virtual(ctx, capFactory(18), capConfig(18, 4, 7), 100)
			},
			want: lockstepOutcome{Winner: -1, TotalIterations: 400, StatsFNV: 0x62b1b65f68e76087},
		},
		{
			name: "racing/window24/quantum8",
			run: func() Result {
				return Virtual(ctx, capFactory(13), racingConfig(13, 8, 3, 8, 24), 1<<16)
			},
			want: lockstepOutcome{Winner: 2, WinnerIterations: 64, TotalIterations: 512, Solution: []int{6, 9, 2, 11, 3, 10, 12, 7, 1, 5, 4, 0, 8}, StatsFNV: 0x44de6fae302d9aba},
		},
		{
			name: "racing/window100/quantum64",
			run: func() Result {
				return Virtual(ctx, capFactory(14), racingConfig(14, 8, 6, 64, 100), 1<<16)
			},
			want: lockstepOutcome{Winner: 2, WinnerIterations: 466, TotalIterations: 3966, Solution: []int{6, 11, 7, 0, 3, 5, 12, 13, 10, 8, 2, 1, 9, 4}, StatsFNV: 0x7c6737e9c8bf3af8},
		},
		{
			name: "racing/budget-inside-window",
			run: func() Result {
				return Virtual(ctx, capFactory(18), racingConfig(18, 4, 9, 64, 100), 250)
			},
			want: lockstepOutcome{Winner: -1, TotalIterations: 1000, StatsFNV: 0xfaddbd95e860ea5f},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := outcomeOf(tc.run()); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("outcome changed:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
