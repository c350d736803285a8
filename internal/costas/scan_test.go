package costas

import (
	"testing"

	"repro/internal/csp"
	"repro/internal/rng"
)

// scanOptionGrid is the Options × ScanBlock matrix the scan-identity tests
// sweep: both error functions, both triangle depths, and block sizes from
// degenerate (1) through non-divisor odd sizes to the bench-picked default.
func scanOptionGrid() []Options {
	var grid []Options
	for _, base := range []Options{
		{},
		{Err: ErrQuadratic},
		{FullTriangle: true},
		{Err: ErrQuadratic, FullTriangle: true},
	} {
		for _, sb := range []int{0, 1, 3, 7} {
			o := base
			o.ScanBlock = sb
			grid = append(grid, o)
		}
	}
	return grid
}

// TestScanSwapsMatchesSwapDelta pins the ScanModel identity exhaustively:
// ScanSwaps(i)[j] == SwapDelta(i, j) for every (i, j), across orders
// (including n ≥ 33 where the collision bitmask folds), option variants and
// block sizes, over random walks so counters hit collision-rich states.
func TestScanSwapsMatchesSwapDelta(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 13, 14, 20, 33, 40} {
		for _, opts := range scanOptionGrid() {
			m, _, r := newBound(n, opts, uint64(100+n))
			deltas := make([]int, n)
			walks := 12
			if n >= 33 {
				walks = 4
			}
			for trial := 0; trial < walks; trial++ {
				for i := 0; i < n; i++ {
					m.ScanSwaps(i, deltas)
					for j := 0; j < n; j++ {
						if want := m.SwapDelta(i, j); deltas[j] != want {
							t.Fatalf("n=%d opts=%+v trial=%d: ScanSwaps(%d)[%d] = %d, SwapDelta = %d (cfg=%v)",
								n, opts, trial, i, j, deltas[j], want, m.cfg)
						}
					}
				}
				m.ExecSwap(r.Intn(n), r.Intn(n))
			}
		}
	}
}

// TestScanSwapsNearSolution drives the identity through low-cost states: the
// optimistic accumulation's thresholds (count ≥ 1, ≥ 2, ≥ 3) all sit near
// the solved boundary, so scanning from a perturbed Costas array exercises
// the sparse-counter corners random walks rarely reach.
func TestScanSwapsNearSolution(t *testing.T) {
	sol := ConstructAny(12)
	if sol == nil {
		t.Fatal("no constructed Costas array of order 12")
	}
	r := rng.New(7)
	for _, opts := range scanOptionGrid() {
		m := New(12, opts)
		cfg := csp.Clone(sol)
		m.Bind(cfg)
		deltas := make([]int, 12)
		for trial := 0; trial < 30; trial++ {
			for i := 0; i < 12; i++ {
				m.ScanSwaps(i, deltas)
				for j := 0; j < 12; j++ {
					if want := m.SwapDelta(i, j); deltas[j] != want {
						t.Fatalf("opts=%+v trial=%d: ScanSwaps(%d)[%d] = %d, SwapDelta = %d (cfg=%v)",
							opts, trial, i, j, deltas[j], want, m.cfg)
					}
				}
			}
			m.ExecSwap(r.Intn(12), r.Intn(12))
		}
	}
}

// TestScanSwapsReadOnly: the batch probe must not write to any internal
// state — counters, cost, per-variable costs and the configuration are all
// byte-identical before and after a full scan of every position.
func TestScanSwapsReadOnly(t *testing.T) {
	m, cfg, _ := newBound(14, Options{}, 404)
	cntBefore := append([]int32(nil), m.cnt...)
	cfgBefore := csp.Clone(cfg)
	costBefore := m.Cost()
	varBefore := make([]int, 14)
	for i := range varBefore {
		varBefore[i] = m.VarCost(i)
	}
	deltas := make([]int, 14)
	for i := 0; i < 14; i++ {
		m.ScanSwaps(i, deltas)
	}
	if m.Cost() != costBefore {
		t.Fatalf("ScanSwaps changed Cost: %d → %d", costBefore, m.Cost())
	}
	for k := range cntBefore {
		if m.cnt[k] != cntBefore[k] {
			t.Fatalf("ScanSwaps changed counter %d: %d → %d", k, cntBefore[k], m.cnt[k])
		}
	}
	for i := range cfgBefore {
		if cfg[i] != cfgBefore[i] {
			t.Fatalf("ScanSwaps changed configuration at %d", i)
		}
	}
	for i := range varBefore {
		if m.VarCost(i) != varBefore[i] {
			t.Fatalf("ScanSwaps changed VarCost(%d): %d → %d", i, varBefore[i], m.VarCost(i))
		}
	}
}

// TestScanSwapsSuffixMatchesFull pins the suffix-view contract: for every i
// and every lo ∈ [0, n], ScanSwaps(i, buf[lo:]) writes exactly the full
// scan's deltas for j ≥ lo, leaves the prefix buf[:lo] alone, changes no
// observable state, and an empty view is a no-op — across the SWAR/gather
// boundary, both error weights and triangle depths, and block sizes that
// split the suffix at odd places.
func TestScanSwapsSuffixMatchesFull(t *testing.T) {
	const sentinel = -1 << 40
	for _, n := range []int{2, 3, 13, 16, 32, 33, 40} {
		for _, base := range costasVariants {
			for _, sb := range []int{1, 5, 0} {
				opts := base
				opts.ScanBlock = sb
				m, _, _ := newBound(n, opts, uint64(7*n+sb))
				cnt := append([]int32(nil), m.cnt...)
				cost := m.Cost()
				varCost := make([]int, n)
				for v := range varCost {
					varCost[v] = m.VarCost(v)
				}
				full, buf := make([]int, n), make([]int, n)
				for i := 0; i < n; i++ {
					m.ScanSwaps(i, full)
					for lo := 0; lo <= n; lo++ {
						for k := range buf {
							buf[k] = sentinel
						}
						m.ScanSwaps(i, buf[lo:])
						for j := 0; j < n; j++ {
							want := full[j]
							if j < lo {
								want = sentinel
							}
							if buf[j] != want {
								t.Fatalf("n=%d opts=%+v: ScanSwaps(%d, buf[%d:]) left buf[%d] = %d, want %d",
									n, opts, i, lo, j, buf[j], want)
							}
						}
					}
				}
				if m.Cost() != cost {
					t.Fatalf("n=%d opts=%+v: suffix scans moved Cost %d → %d", n, opts, cost, m.Cost())
				}
				for k := range cnt {
					if m.cnt[k] != cnt[k] {
						t.Fatalf("n=%d opts=%+v: suffix scans wrote counter %d: %d → %d", n, opts, k, cnt[k], m.cnt[k])
					}
				}
				for v, want := range varCost {
					if got := m.VarCost(v); got != want {
						t.Fatalf("n=%d opts=%+v: suffix scans moved VarCost(%d) %d → %d", n, opts, v, want, got)
					}
				}
			}
		}
	}
}

// TestScanSwapsPanics: the batch probe validates its arguments like the rest
// of the model API. A short deltas is a legal suffix view; a long one, or a
// position out of range, is not — even with an empty view.
func TestScanSwapsPanics(t *testing.T) {
	m, _, _ := newBound(9, Options{}, 5)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("long deltas", func() { m.ScanSwaps(0, make([]int, 10)) })
	expectPanic("negative i", func() { m.ScanSwaps(-1, make([]int, 9)) })
	expectPanic("i == n", func() { m.ScanSwaps(9, make([]int, 9)) })
	expectPanic("i == n, short deltas", func() { m.ScanSwaps(9, make([]int, 4)) })
	expectPanic("negative i, empty deltas", func() { m.ScanSwaps(-1, nil) })
	m.ScanSwaps(0, make([]int, 8))
	m.ScanSwaps(8, nil)
}

// TestScanBlockClamped: ScanBlock is a pure performance knob — any value
// (including larger than n) yields the same deltas, and the stored block
// size never exceeds n.
func TestScanBlockClamped(t *testing.T) {
	const n = 10
	ref := New(n, Options{})
	big := New(n, Options{ScanBlock: 1 << 20})
	if big.scanBlock != n {
		t.Fatalf("ScanBlock %d not clamped to n=%d: got %d", 1<<20, n, big.scanBlock)
	}
	r := rng.New(99)
	cfg := csp.RandomConfiguration(n, r)
	ref.Bind(csp.Clone(cfg))
	big.Bind(csp.Clone(cfg))
	dr, db := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		ref.ScanSwaps(i, dr)
		big.ScanSwaps(i, db)
		for j := range dr {
			if dr[j] != db[j] {
				t.Fatalf("ScanSwaps(%d)[%d] differs across block sizes: %d vs %d", i, j, dr[j], db[j])
			}
		}
	}
}

func BenchmarkScanSwaps(b *testing.B) {
	for _, n := range []int{18, 40, 96} {
		b.Run(string(rune('0'+n/10))+string(rune('0'+n%10)), func(b *testing.B) {
			m, _, r := newBound(n, Options{}, 1)
			deltas := make([]int, n)
			i := 3
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				m.ScanSwaps(i, deltas)
				if k%16 == 0 {
					i = r.Intn(n)
				}
			}
		})
	}
}

func BenchmarkSwapDeltaLoop(b *testing.B) {
	for _, n := range []int{18, 40, 96} {
		b.Run(string(rune('0'+n/10))+string(rune('0'+n%10)), func(b *testing.B) {
			m, _, r := newBound(n, Options{}, 1)
			sink := 0
			i := 3
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for j := 0; j < n; j++ {
					sink += m.SwapDelta(i, j)
				}
				if k%16 == 0 {
					i = r.Intn(n)
				}
			}
			_ = sink
		})
	}
}
