package costas

// FuzzCostasCost drives the CAP model's incremental cost machinery with
// random permutations and random swap sequences, across every model
// variant (error weights × triangle depth), and checks it against ground
// truth at every step:
//
//   - cost is never negative;
//   - cost == 0 exactly when the configuration is a Costas array;
//   - CostIfSwap agrees with a from-scratch recomputation of the swapped
//     configuration and leaves no visible state behind;
//   - CostOf scores the swapped and the bound configuration exactly as a
//     from-scratch rebuild does, without writing a counter (the
//     csp.ScanModel CostOf identity dialectic's synthesis path rests on);
//   - SwapDelta(i, j) == CostIfSwap(i, j) − Cost() (the csp.ScanModel
//     delta identity) and a probe leaves every difference-triangle counter
//     bit-for-bit untouched (the kernel is genuinely read-only — no
//     mutate-and-rollback);
//   - ScanSwaps(i) returns, for every candidate j, exactly SwapDelta(i, j)
//     (the csp.ScanModel row identity csp.Probe's tier choice rests on),
//     reports 0 for the no-op j == i, and leaves the counters as
//     untouched as the scalar probe does; a suffix view d[lo:] gets
//     exactly SwapDelta(i, lo+k) in d[lo+k] and d[:lo] is not written;
//   - ExecSwap keeps the incremental counters equal to a full rebuild;
//   - VarCost(i), kept current across swaps, equals the brute-force
//     varCostOf reference.
//
// The fuzz input is one seed (the random permutation) plus a script whose
// first bytes pick the instance size and variant and whose tail is the
// swap sequence. Each swap's suffix start lo is the sum of its two bytes
// mod n+1, so no byte changes meaning and every corpus entry stays valid.
// Orders run 2..40, so both the one-word SWAR rows (n ≤ 32) and the
// gather path (n ≥ 33) are reached. Seed corpus lives in
// testdata/fuzz/FuzzCostasCost and in the f.Add calls below.

import (
	"testing"

	"repro/internal/csp"
	"repro/internal/rng"
)

// costasVariants are the model variants whose cost semantics differ —
// both error weightings, each with and without Chang's depth cut.
var costasVariants = []Options{
	{},
	{FullTriangle: true},
	{Err: ErrQuadratic},
	{Err: ErrQuadratic, FullTriangle: true},
}

// costasFullCost is ground truth: a fresh model bound to a copy of cfg.
func costasFullCost(opts Options, cfg []int) int {
	m := New(len(cfg), opts)
	m.Bind(append([]int(nil), cfg...))
	return m.Cost()
}

func FuzzCostasCost(f *testing.F) {
	f.Add(uint64(1), []byte{10, 0, 0, 1, 2, 3})
	f.Add(uint64(42), []byte{7, 1, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint64(7), []byte{13, 2, 0, 12, 1, 11, 2, 10})
	f.Add(uint64(99), []byte{4, 3, 1, 1, 2, 2, 3, 3, 0, 0})
	// Orders 31, 32 (the widest one-word row) and 33 (the first gather row).
	f.Add(uint64(31), []byte{29, 2, 0, 30, 5, 17, 12, 12, 3, 29, 8, 1})
	f.Add(uint64(32), []byte{30, 1, 0, 31, 7, 16, 2, 30, 15, 16, 31, 0})
	f.Add(uint64(33), []byte{31, 3, 0, 32, 16, 17, 4, 29, 32, 1, 9, 10})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) < 2 {
			return
		}
		n := 2 + int(script[0])%39 // orders 2..40
		opts := costasVariants[int(script[1])%len(costasVariants)]
		swaps := script[2:]
		if len(swaps) > 128 { // bound the O(n²)-per-swap ground-truth work
			swaps = swaps[:128]
		}

		m := New(n, opts)
		cfg := csp.RandomConfiguration(n, rng.New(seed))
		m.Bind(cfg)

		check := func(stage string) {
			cost := m.Cost()
			if cost < 0 {
				t.Fatalf("%s: negative cost %d (cfg %v)", stage, cost, cfg)
			}
			if want := costasFullCost(opts, cfg); cost != want {
				t.Fatalf("%s: incremental cost %d, full recompute %d (cfg %v)", stage, cost, want, cfg)
			}
			if (cost == 0) != IsCostas(cfg) {
				t.Fatalf("%s: cost %d disagrees with IsCostas=%v (cfg %v)", stage, cost, IsCostas(cfg), cfg)
			}
			for i := 0; i < n; i++ {
				if v, want := m.VarCost(i), m.varCostOf(cfg, i); v != want {
					t.Fatalf("%s: VarCost(%d) = %d, reference %d (cfg %v)", stage, i, v, want, cfg)
				} else if cost == 0 && v != 0 {
					t.Fatalf("%s: solved configuration blames variable %d with %d", stage, i, v)
				}
			}
		}

		check("bind")
		cntSnapshot := make([]int32, len(m.cnt))
		deltas := make([]int, n)
		for k := 0; k+1 < len(swaps); k += 2 {
			i, j := int(swaps[k])%n, int(swaps[k+1])%n
			hyp := append([]int(nil), cfg...)
			hyp[i], hyp[j] = hyp[j], hyp[i]
			want := costasFullCost(opts, hyp)
			copy(cntSnapshot, m.cnt)
			if got := m.CostIfSwap(i, j); got != want {
				t.Fatalf("CostIfSwap(%d,%d) = %d, full recompute %d (cfg %v)", i, j, got, want, cfg)
			}
			if got := m.CostOf(hyp); got != want {
				t.Fatalf("CostOf(%v) = %d, full recompute %d (cfg %v)", hyp, got, want, cfg)
			}
			if got := m.CostOf(cfg); got != m.Cost() {
				t.Fatalf("CostOf(bound cfg) = %d, Cost = %d (cfg %v)", got, m.Cost(), cfg)
			}
			if got, wantDelta := m.SwapDelta(i, j), want-m.Cost(); got != wantDelta {
				t.Fatalf("SwapDelta(%d,%d) = %d, CostIfSwap−Cost = %d (cfg %v)", i, j, got, wantDelta, cfg)
			}
			// Batch probe: one ScanSwaps pass must agree with the scalar
			// kernel on every candidate of row i, including the zero for
			// the no-op j == i, and be just as counter-neutral.
			m.ScanSwaps(i, deltas)
			for c := 0; c < n; c++ {
				if wd := m.SwapDelta(i, c); deltas[c] != wd {
					t.Fatalf("ScanSwaps(%d)[%d] = %d, SwapDelta = %d (cfg %v)", i, c, deltas[c], wd, cfg)
				}
			}
			if deltas[i] != 0 {
				t.Fatalf("ScanSwaps(%d)[%d] = %d for the identity swap, want 0 (cfg %v)", i, i, deltas[i], cfg)
			}
			// Suffix view: only candidates from lo on, prefix untouched.
			lo := (int(swaps[k]) + int(swaps[k+1])) % (n + 1)
			const untouched = -1 << 40 // no swap delta is this large
			for c := range deltas {
				deltas[c] = untouched
			}
			m.ScanSwaps(i, deltas[lo:])
			for c := 0; c < n; c++ {
				want := untouched
				if c >= lo {
					want = m.SwapDelta(i, c)
				}
				if deltas[c] != want {
					t.Fatalf("ScanSwaps(%d, d[%d:]) left d[%d] = %d, want %d (cfg %v)", i, lo, c, deltas[c], want, cfg)
				}
			}
			for s := range cntSnapshot {
				if m.cnt[s] != cntSnapshot[s] {
					t.Fatalf("probe of swap(%d,%d) wrote counter %d: %d → %d (cfg %v)",
						i, j, s, cntSnapshot[s], m.cnt[s], cfg)
				}
			}
			if got := m.Cost(); got != costasFullCost(opts, cfg) {
				t.Fatalf("CostIfSwap(%d,%d) mutated state: cost now %d (cfg %v)", i, j, got, cfg)
			}
			m.ExecSwap(i, j)
			if got := m.Cost(); got != want {
				t.Fatalf("ExecSwap(%d,%d) drifted: cost %d, want %d (cfg %v)", i, j, got, want, cfg)
			}
			check("swap")
		}
	})
}
