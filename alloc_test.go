package repro

// Allocation discipline for the CAP hot path: after Bind, the steady-state
// Adaptive Search solve loop — culprit selection, min-conflict probing via
// the read-only SwapDelta kernel, commits, resets, restarts — performs ZERO
// heap allocations. cmd/perfbench -smoke gates CI on the same property via
// benchmark allocs/op; this test pins it exactly with testing.AllocsPerRun.

import (
	"testing"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/rng"
)

// TestPerSolveSetupAllocBudget pins the one-time per-solve setup cost that
// table1/sequential_n13 pays on every operation: a whole costas.Model is 4
// heap allocations (3 when n > 32 and the bit-plane scan cache is absent)
// because all []int scratch shares one arena, the int32 slabs ride on the
// counter block, and the plane words share one uint64 arena with the plane
// log; an adaptive.Engine adds 5 more (engine, RNG, tabu block, the shared
// bestJs/probe-row arena, and the initial configuration). Any slice that stops
// sharing its arena shows up here as an extra allocation.
func TestPerSolveSetupAllocBudget(t *testing.T) {
	cases := []struct {
		n           int
		model, full float64 // costas.New alone; New + adaptive.NewEngine
	}{
		{13, 4, 9}, // table1's instance: 9 allocs/op is the whole setup
		{32, 4, 9}, // widest order with the bit-plane cache
		{33, 3, 8}, // first order without it (rows wider than one word)
	}
	for _, tc := range cases {
		model := testing.AllocsPerRun(50, func() {
			_ = costas.New(tc.n, costas.Options{})
		})
		if model != tc.model {
			t.Errorf("n=%d: costas.New costs %.0f allocs (want %.0f)", tc.n, model, tc.model)
		}
		full := testing.AllocsPerRun(50, func() {
			m := costas.New(tc.n, costas.Options{})
			_ = adaptive.NewEngine(m, costas.TunedParams(tc.n), 1)
		})
		if full != tc.full {
			t.Errorf("n=%d: model+engine setup costs %.0f allocs (want %.0f)", tc.n, full, tc.full)
		}
	}
}

func TestSteadyStateSolveLoopZeroAllocs(t *testing.T) {
	const n = 16
	m := costas.New(n, costas.Options{})
	e := adaptive.NewEngine(m, costas.TunedParams(n), 3)
	scratch := make([]int, n)
	r := rng.New(11)
	// Warm up past one-time work (initial VarCost recompute, first reset)
	// so the measurement sees only the steady state.
	e.Step(2048)
	avg := testing.AllocsPerRun(100, func() {
		if e.Solved() {
			r.PermInto(scratch)
			e.RestartFrom(scratch)
		}
		e.Step(64)
	})
	if avg != 0 {
		t.Fatalf("steady-state solve loop allocates %.2f allocs/run (want 0): the hot path regressed", avg)
	}
}
