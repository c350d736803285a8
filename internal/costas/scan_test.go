package costas

import (
	"testing"

	"repro/internal/csp"
	"repro/internal/rng"
)

// TestScanSwapsMatchesSwapDelta pins the ScanModel identity exhaustively:
// ScanSwaps(i)[j] == SwapDelta(i, j) for every (i, j), across orders
// (including n ≥ 33 where the collision bitmask folds) and option variants,
// over random walks so counters hit collision-rich states.
func TestScanSwapsMatchesSwapDelta(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 13, 14, 20, 33, 40} {
		for _, opts := range costasVariants {
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
	for k := 0; k < 4*len(costasVariants); k++ {
		// Four walks from the solution per variant, one RNG stream.
		opts := costasVariants[k/4]
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
// boundary, both error weights and triangle depths, three states each.
func TestScanSwapsSuffixMatchesFull(t *testing.T) {
	const sentinel = -1 << 40
	for _, n := range []int{2, 3, 13, 16, 32, 33, 40} {
		for _, opts := range costasVariants {
			for _, seed := range []int{1, 5, 0} {
				m, _, _ := newBound(n, opts, uint64(7*n+seed))
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

// TestScanSpecialCandidateCollisions drives the special candidates j = i ± d
// into the one case their carry-save removal counter cannot hold: a third
// removal of one value. For j = i+d that takes the pairs (i−d, i), (i, i+d)
// and (i+d, i+2d) holding one difference; for j = i−d the mirror triple
// (i−2d, i−d), (i−d, i), (i, i+d), which ends at i+d. Each configuration
// puts four positions s, s+d, s+2d, s+3d in arithmetic progression — so
// i = s+d has the first triple and i = s+2d the second — and fills the rest
// at random. Full and suffix scans must match SwapDelta for every
// candidate, at every order from 4 to 33 (the SWAR sweep's candidate loop
// branches on |j − i| against the depth and on j against d, which depend
// on n; n = 33 is the gather path), both weightings and both triangle
// depths.
func TestScanSpecialCandidateCollisions(t *testing.T) {
	r := rng.New(2024)
	for n := 4; n <= 33; n++ {
		for _, opts := range costasVariants {
			m := New(n, opts)
			cfg := make([]int, n)
			exactlyThree := 0
			for trial := 0; trial < 40; trial++ {
				d := 1 + r.Intn(min(m.depth, (n-1)/3))
				s := r.Intn(n - 3*d)
				a := 1 + r.Intn((n-1)/3)
				v0, step := r.Intn(n-3*a), a
				if r.Bool() {
					v0, step = v0+3*a, -a
				}
				var fixed [][2]int
				for k := 0; k < 4; k++ {
					fixed = append(fixed, [2]int{s + k*d, v0 + k*step})
				}
				if bindAround(m, cfg, r, fixed, d, step) {
					exactlyThree++
				}
				checkScanCollisions(t, m, cfg, s+d, s+2*d)
			}
			// The counter's overflow changes the answer only when the three
			// pairs are the value's only holders; make sure that was hit.
			if exactlyThree == 0 {
				t.Fatalf("n=%d opts=%+v: no configuration held its difference exactly three times", n, opts)
			}
		}
	}
}

// TestScanGenericCandidateCollisions drives an ordinary candidate's
// removal counter into overflow: pairs A = (i−d, i) and B = (i, i+d) hold
// one difference (i−d, i, i+d in arithmetic progression), and a disjoint
// pair (p, p+d) holds it too, so the candidates j = p+d (through pair C)
// and j = p (through pair D) remove that value three times. Neither is
// i ± d, so this is the sweep's generic path, not the special row. Full
// and suffix scans must match SwapDelta for every candidate, at every
// order from 6 to 33, both weightings and both triangle depths.
func TestScanGenericCandidateCollisions(t *testing.T) {
	r := rng.New(2025)
	for n := 6; n <= 33; n++ {
		for _, opts := range costasVariants {
			m := New(n, opts)
			cfg := make([]int, n)
			exactlyThree := 0
			for trial := 0; trial < 40; trial++ {
				d := 1 + r.Intn(min(m.depth, (n-1)/4))
				i := d + r.Intn(n-2*d)
				taken := map[int]bool{i - d: true, i: true, i + d: true}
				p := r.Intn(n - d)
				for taken[p] || taken[p+d] {
					p = r.Intn(n - d)
				}
				// Values x, x+δ, x+2δ at i−d, i, i+d and w, w+δ at p, p+d,
				// all distinct.
				var x, w, step int
				for {
					a := 1 + r.Intn((n-1)/3)
					x, w, step = r.Intn(n-2*a), r.Intn(n-a), a
					if r.Bool() {
						x, w, step = x+2*a, w+a, -a
					}
					if q := (w - x) / step; (w-x)%step != 0 || q < -1 || q > 2 {
						break
					}
				}
				fixed := [][2]int{{i - d, x}, {i, x + step}, {i + d, x + 2*step}, {p, w}, {p + d, w + step}}
				if bindAround(m, cfg, r, fixed, d, step) {
					exactlyThree++
				}
				checkScanCollisions(t, m, cfg, i)
			}
			if exactlyThree == 0 {
				t.Fatalf("n=%d opts=%+v: no configuration held its difference exactly three times", n, opts)
			}
		}
	}
}

// bindAround binds m to cfg holding the fixed (position, value) entries and
// a random permutation of the remaining values elsewhere, and reports
// whether row d then holds the difference step exactly three times.
func bindAround(m *Model, cfg []int, r *rng.RNG, fixed [][2]int, d, step int) bool {
	n := len(cfg)
	used := make([]bool, n)
	for k := range cfg {
		cfg[k] = -1
	}
	for _, pv := range fixed {
		cfg[pv[0]] = pv[1]
		used[pv[1]] = true
	}
	var rest []int
	for v, u := range used {
		if !u {
			rest = append(rest, v)
		}
	}
	perm := r.Perm(len(rest))
	for k := range cfg {
		if cfg[k] < 0 {
			cfg[k], perm = rest[perm[0]], perm[1:]
		}
	}
	m.Bind(cfg)
	held := 0
	for q := 0; q+d < n; q++ {
		if cfg[q+d]-cfg[q] == step {
			held++
		}
	}
	return held == 3
}

// checkScanCollisions checks the full scan of every position, and every
// suffix scan of the positions in suffixes, against SwapDelta.
func checkScanCollisions(t *testing.T, m *Model, cfg []int, suffixes ...int) {
	t.Helper()
	n := len(cfg)
	full, buf := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		m.ScanSwaps(i, full)
		for j := 0; j < n; j++ {
			if want := m.SwapDelta(i, j); full[j] != want {
				t.Fatalf("n=%d depth=%d w1=%d: ScanSwaps(%d)[%d] = %d, SwapDelta = %d (cfg=%v)",
					n, m.depth, m.w[1], i, j, full[j], want, cfg)
			}
		}
	}
	for _, i := range suffixes {
		for lo := 0; lo <= n; lo++ {
			m.ScanSwaps(i, buf[lo:])
			for j := lo; j < n; j++ {
				if want := m.SwapDelta(i, j); buf[j] != want {
					t.Fatalf("n=%d depth=%d w1=%d: ScanSwaps(%d, buf[%d:]) left buf[%d] = %d, SwapDelta = %d (cfg=%v)",
						n, m.depth, m.w[1], i, lo, j, buf[j], want, cfg)
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
