package costas

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/csp"
	"repro/internal/rng"
)

// naiveCost recomputes the model cost definition from scratch: one error of
// weight w(d) per occurrence-after-the-first of a difference in row d, rows
// limited to depth.
func naiveCost(cfg []int, depth int, w []int) int {
	n := len(cfg)
	cost := 0
	for d := 1; d <= depth; d++ {
		counts := map[int]int{}
		for i := 0; i+d < n; i++ {
			v := cfg[i+d] - cfg[i]
			counts[v]++
			if counts[v] > 1 {
				cost += w[d]
			}
		}
	}
	return cost
}

func newBound(n int, opts Options, seed uint64) (*Model, []int, *rng.RNG) {
	m := New(n, opts)
	r := rng.New(seed)
	cfg := csp.RandomConfiguration(n, r)
	m.Bind(cfg)
	return m, cfg, r
}

func TestBindCostMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13, 20} {
		for _, opts := range []Options{{}, {Err: ErrQuadratic}, {FullTriangle: true}, {Err: ErrQuadratic, FullTriangle: true}} {
			m, cfg, _ := newBound(n, opts, uint64(n*7+1))
			want := naiveCost(cfg, m.depth, m.w)
			if got := m.Cost(); got != want {
				t.Errorf("n=%d opts=%+v: Bind cost %d, naive %d", n, opts, got, want)
			}
		}
	}
}

// TestCostOfMatchesBind pins the csp.ScanModel CostOf identity on both
// kernel shapes (one-word SWAR rows for n ≤ 32, the seen-array path above)
// and all four model variants: CostOf(cfg) is the cost Bind(cfg) leaves,
// and scoring changes nothing observable — Cost, every VarCost, the bound
// configuration and a ScanSwaps row stay as they were, and a commit after
// it still lands on a full rebuild's cost.
func TestCostOfMatchesBind(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for _, opts := range costasVariants {
			m, cfg, r := newBound(n, opts, uint64(1000+n))
			ref := New(n, opts)
			bound := csp.Clone(cfg)
			varBefore := make([]int, n)
			rowBefore, row := make([]int, n), make([]int, n)
			for trial := 0; trial < 6; trial++ {
				cost := m.Cost()
				for v := range varBefore {
					varBefore[v] = m.VarCost(v)
				}
				i := r.Intn(n)
				m.ScanSwaps(i, rowBefore)

				probe := csp.RandomConfiguration(n, r)
				if trial == 0 {
					copy(probe, cfg) // the bound configuration scores as Cost
				}
				probeBefore := csp.Clone(probe)
				got := m.CostOf(probe)
				ref.Bind(csp.Clone(probe))
				if want := ref.Cost(); got != want {
					t.Fatalf("n=%d opts=%+v trial %d: CostOf(%v) = %d, Bind cost %d", n, opts, trial, probe, got, want)
				}
				if !slices.Equal(probe, probeBefore) {
					t.Fatalf("n=%d opts=%+v trial %d: CostOf rewrote its argument", n, opts, trial)
				}
				if m.Cost() != cost {
					t.Fatalf("n=%d opts=%+v trial %d: CostOf moved Cost %d → %d", n, opts, trial, cost, m.Cost())
				}
				for v, want := range varBefore {
					if got := m.VarCost(v); got != want {
						t.Fatalf("n=%d opts=%+v trial %d: CostOf moved VarCost(%d) %d → %d", n, opts, trial, v, want, got)
					}
				}
				if len(m.cfg) == 0 || &m.cfg[0] != &cfg[0] || !slices.Equal(cfg, bound) {
					t.Fatalf("n=%d opts=%+v trial %d: CostOf changed the bound configuration", n, opts, trial)
				}
				m.ScanSwaps(i, row)
				if !slices.Equal(row, rowBefore) {
					t.Fatalf("n=%d opts=%+v trial %d: ScanSwaps(%d) row moved across CostOf: %v → %v", n, opts, trial, i, rowBefore, row)
				}

				a, b := r.Intn(n), r.Intn(n)
				m.CommitSwap(a, b, m.SwapDelta(a, b))
				bound[a], bound[b] = bound[b], bound[a]
				ref.Bind(csp.Clone(bound))
				if m.Cost() != ref.Cost() {
					t.Fatalf("n=%d opts=%+v trial %d: commit after CostOf left cost %d, rebuild %d", n, opts, trial, m.Cost(), ref.Cost())
				}
			}
		}
	}
}

func TestCostZeroOnKnownSolution(t *testing.T) {
	// [3,4,2,1,5] is the paper's example of §II (1-based); 0-based below.
	paperExample := []int{2, 3, 1, 0, 4}
	if !IsCostas(paperExample) {
		t.Fatal("paper's example array is not recognised as Costas")
	}
	m := New(5, Options{})
	m.Bind(append([]int(nil), paperExample...))
	if m.Cost() != 0 {
		t.Fatalf("model cost %d on a known Costas array", m.Cost())
	}
}

func TestCostZeroIffCostas(t *testing.T) {
	// Chang's bound: zero cost on the half triangle must imply full Costas.
	r := rng.New(42)
	for trial := 0; trial < 500; trial++ {
		n := 4 + r.Intn(9)
		cfg := csp.RandomConfiguration(n, r)
		m := New(n, Options{})
		m.Bind(cfg)
		if (m.Cost() == 0) != IsCostas(cfg) {
			t.Fatalf("n=%d cfg=%v: Chang-depth cost %d disagrees with IsCostas=%v",
				n, cfg, m.Cost(), IsCostas(cfg))
		}
	}
}

func TestCostIfSwapMatchesRebind(t *testing.T) {
	for _, opts := range []Options{{}, {Err: ErrQuadratic}, {FullTriangle: true}} {
		m, cfg, r := newBound(12, opts, 99)
		fresh := New(12, opts)
		for trial := 0; trial < 300; trial++ {
			i, j := r.Intn(12), r.Intn(12)
			got := m.CostIfSwap(i, j)
			trialCfg := csp.Clone(cfg)
			trialCfg[i], trialCfg[j] = trialCfg[j], trialCfg[i]
			fresh.Bind(trialCfg)
			if want := fresh.Cost(); got != want {
				t.Fatalf("opts=%+v trial %d swap(%d,%d): CostIfSwap=%d, rebind=%d",
					opts, trial, i, j, got, want)
			}
			// CostIfSwap must not change visible state.
			if m.Cost() != naiveCost(cfg, m.depth, m.w) {
				t.Fatalf("CostIfSwap mutated state")
			}
		}
	}
}

func TestExecSwapKeepsIncrementalCost(t *testing.T) {
	m, cfg, r := newBound(15, Options{}, 7)
	for trial := 0; trial < 1000; trial++ {
		i, j := r.Intn(15), r.Intn(15)
		predicted := m.CostIfSwap(i, j)
		m.ExecSwap(i, j)
		if m.Cost() != predicted {
			t.Fatalf("trial %d: ExecSwap cost %d != CostIfSwap prediction %d", trial, m.Cost(), predicted)
		}
		if want := naiveCost(cfg, m.depth, m.w); m.Cost() != want {
			t.Fatalf("trial %d: incremental cost %d drifted from naive %d", trial, m.Cost(), want)
		}
		if !csp.IsPermutation(cfg) {
			t.Fatalf("trial %d: configuration no longer a permutation: %v", trial, cfg)
		}
	}
}

func TestExecSwapSamePositionNoop(t *testing.T) {
	m, cfg, _ := newBound(10, Options{}, 3)
	before := m.Cost()
	snapshot := csp.Clone(cfg)
	m.ExecSwap(4, 4)
	if m.Cost() != before || !equalPerm(cfg, snapshot) {
		t.Fatal("ExecSwap(i,i) changed state")
	}
	if m.CostIfSwap(4, 4) != before {
		t.Fatal("CostIfSwap(i,i) != current cost")
	}
}

func TestVarCostMatchesReference(t *testing.T) {
	m, cfg, r := newBound(14, Options{}, 21)
	for trial := 0; trial < 50; trial++ {
		i, j := r.Intn(14), r.Intn(14)
		m.ExecSwap(i, j)
		for v := 0; v < 14; v++ {
			want := m.varCostOf(cfg, v)
			if got := m.VarCost(v); got != want {
				t.Fatalf("trial %d var %d: VarCost=%d reference=%d", trial, v, got, want)
			}
		}
	}
}

// TestIncrementalStateProperty drives random interleavings of every
// state-changing call — ExecSwap, CommitSwap, VarCost reads, ScanSwaps,
// Bind and Reset — across orders on both sides of the one-word row limit
// (n = 32 has planes, n = 33 does not) and every error/depth variant, and
// after each step checks the incrementally kept state against fresh
// recomputation: the cost, the per-variable errors and pairX whenever they
// are current, and every bit-plane row that is marked valid.
func TestIncrementalStateProperty(t *testing.T) {
	for _, n := range []int{13, 16, 32, 33} {
		for _, opts := range []Options{
			{}, {Err: ErrQuadratic}, {FullTriangle: true}, {Err: ErrQuadratic, FullTriangle: true},
		} {
			m, cfg, r := newBound(n, opts, uint64(1000+n))
			deltas := make([]int, n)
			px := make([]int32, len(m.pairX))
			check := func(step int, op string) {
				t.Helper()
				if want := naiveCost(cfg, m.depth, m.w); m.Cost() != want {
					t.Fatalf("n=%d opts=%+v step %d (%s): cost %d, naive %d", n, opts, step, op, m.Cost(), want)
				}
				// Read the cached errors directly: VarCost would rebuild
				// stale ones and hide a missed update.
				if !m.varDirty {
					clear(px)
					for d := 1; d <= m.depth; d++ {
						for i := 0; i+d < n; i++ {
							px[m.rowBase[d]+cfg[i+d]-cfg[i]+n-1] ^= int32(i)
						}
					}
					for v := 0; v < n; v++ {
						if want := m.varCostOf(cfg, v); m.varCost[v] != want {
							t.Fatalf("n=%d opts=%+v step %d (%s): varCost[%d] = %d, reference %d",
								n, opts, step, op, v, m.varCost[v], want)
						}
					}
					for k := range px {
						if m.pairX[k] != px[k] {
							t.Fatalf("n=%d opts=%+v step %d (%s): pairX[%d] = %d, fresh %d",
								n, opts, step, op, k, m.pairX[k], px[k])
						}
					}
				}
				valid := 0
				for d := 1; d <= m.depth && m.planes != nil; d++ {
					if m.planeGen[d] != m.planeEpoch {
						continue
					}
					valid++
					po := 3 * (d - 1)
					kept := [3]uint64(m.planes[po : po+3])
					m.planeRebuildRow(d)
					if fresh := [3]uint64(m.planes[po : po+3]); kept != fresh {
						t.Fatalf("n=%d opts=%+v step %d (%s): row %d planes %x, fresh %x",
							n, opts, step, op, d, kept, fresh)
					}
				}
				if valid != m.planeValid {
					t.Fatalf("n=%d opts=%+v step %d (%s): %d valid rows, planeValid %d",
						n, opts, step, op, valid, m.planeValid)
				}
			}
			for step := 0; step < 400; step++ {
				i, j := r.Intn(n), r.Intn(n)
				var op string
				switch k := r.Intn(20); {
				case k < 6:
					op = "ExecSwap"
					m.ExecSwap(i, j)
				case k < 12:
					op = "CommitSwap"
					m.CommitSwap(i, j, m.SwapDelta(i, j))
				case k < 15:
					op = "VarCost"
					for v := 0; v < n; v++ {
						if got, want := m.VarCost(v), m.varCostOf(cfg, v); got != want {
							t.Fatalf("n=%d opts=%+v step %d: VarCost(%d) = %d, reference %d", n, opts, step, v, got, want)
						}
					}
				case k < 18:
					op = "ScanSwaps"
					m.ScanSwaps(i, deltas)
					for c := 0; c < n; c++ {
						if want := m.SwapDelta(i, c); deltas[c] != want {
							t.Fatalf("n=%d opts=%+v step %d: ScanSwaps(%d)[%d] = %d, SwapDelta %d", n, opts, step, i, c, deltas[c], want)
						}
					}
				case k < 19:
					op = "Bind"
					r.PermInto(cfg)
					m.Bind(cfg)
				default:
					op = "Reset"
					if got := m.Reset(cfg, r); got != m.Cost() {
						t.Fatalf("n=%d opts=%+v step %d: Reset returned %d, model cost %d", n, opts, step, got, m.Cost())
					}
				}
				check(step, op)
			}
		}
	}
}

func TestVarCostsConsistentWithCost(t *testing.T) {
	// All occurrences of a duplicated value are blamed, so Σ VarCost
	// strictly dominates 2 × Cost on violated configurations, and both hit
	// zero together.
	for seed := uint64(0); seed < 20; seed++ {
		m, _, _ := newBound(16, Options{}, seed)
		sum := 0
		for v := 0; v < 16; v++ {
			sum += m.VarCost(v)
		}
		switch {
		case m.Cost() == 0 && sum != 0:
			t.Fatalf("seed %d: zero cost but ΣVarCost=%d", seed, sum)
		case m.Cost() > 0 && sum < 2*m.Cost():
			t.Fatalf("seed %d: ΣVarCost=%d < 2×cost=%d", seed, sum, 2*m.Cost())
		}
	}
}

func TestResetImprovesOrKeepsValidState(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		m, cfg, r := newBound(13, Options{}, seed)
		for round := 0; round < 20; round++ {
			got := m.Reset(cfg, r)
			if !csp.IsPermutation(cfg) {
				t.Fatalf("seed %d round %d: Reset broke the permutation: %v", seed, round, cfg)
			}
			if want := naiveCost(cfg, m.depth, m.w); got != want || m.Cost() != want {
				t.Fatalf("seed %d round %d: Reset returned %d, model %d, naive %d",
					seed, round, got, m.Cost(), want)
			}
		}
	}
}

func TestResetEscapesSometimes(t *testing.T) {
	// §IV-B2: a strict improvement happens in ≈32 % of reset calls. We only
	// assert it happens at all across many calls (tight bounds would be
	// fragile at small n).
	m, cfg, r := newBound(15, Options{}, 5)
	improved := 0
	const calls = 200
	for k := 0; k < calls; k++ {
		// Scramble a bit so we're at varied configurations.
		for s := 0; s < 3; s++ {
			m.ExecSwap(r.Intn(15), r.Intn(15))
		}
		before := m.Cost()
		after := m.Reset(cfg, r)
		if after < before {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("custom reset never strictly improved in %d calls", calls)
	}
}

func TestGenericResetOption(t *testing.T) {
	m, cfg, r := newBound(12, Options{GenericReset: true}, 11)
	for k := 0; k < 50; k++ {
		got := m.Reset(cfg, r)
		if !csp.IsPermutation(cfg) {
			t.Fatalf("generic reset broke permutation: %v", cfg)
		}
		if got != m.Cost() {
			t.Fatalf("generic reset return %d != model cost %d", got, m.Cost())
		}
	}
}

func TestChangDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 10: 4, 20: 9, 23: 11}
	for n, want := range cases {
		if got := ChangDepth(n); got != want {
			t.Errorf("ChangDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestErrWeights(t *testing.T) {
	m := New(10, Options{Err: ErrQuadratic})
	for d := 1; d <= m.depth; d++ {
		if m.w[d] != 100-d*d {
			t.Errorf("quadratic weight w[%d] = %d, want %d", d, m.w[d], 100-d*d)
		}
	}
	mu := New(10, Options{}) // zero value defaults to unit weights
	for d := 1; d <= mu.depth; d++ {
		if mu.w[d] != 1 {
			t.Errorf("unit weight w[%d] = %d, want 1", d, mu.w[d])
		}
	}
}

func TestFullTriangleDepth(t *testing.T) {
	m := New(9, Options{FullTriangle: true})
	if m.depth != 8 {
		t.Fatalf("full triangle depth %d, want 8", m.depth)
	}
	m2 := New(9, Options{})
	if m2.depth != 4 {
		t.Fatalf("Chang depth %d, want 4", m2.depth)
	}
}

func TestNewPanicsOnInvalidOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, Options{})
}

func TestBindPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bind with wrong length did not panic")
		}
	}()
	New(5, Options{}).Bind([]int{0, 1, 2})
}

// Property: for arbitrary seeds and sizes, a long random walk of ExecSwap
// keeps the incremental cost equal to ground truth.
func TestQuickIncrementalIntegrity(t *testing.T) {
	f := func(seed uint64, nRaw uint8, full bool) bool {
		n := int(nRaw%18) + 3
		m, cfg, r := newBound(n, Options{FullTriangle: full}, seed)
		for k := 0; k < 40; k++ {
			m.ExecSwap(r.Intn(n), r.Intn(n))
		}
		return m.Cost() == naiveCost(cfg, m.depth, m.w) && csp.IsPermutation(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CostIfSwap is symmetric in its arguments.
func TestQuickCostIfSwapSymmetric(t *testing.T) {
	f := func(seed uint64, nRaw, iRaw, jRaw uint8) bool {
		n := int(nRaw%15) + 4
		m, _, _ := newBound(n, Options{}, seed)
		i, j := int(iRaw)%n, int(jRaw)%n
		return m.CostIfSwap(i, j) == m.CostIfSwap(j, i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCostIfSwap(b *testing.B) {
	m, _, r := newBound(22, Options{}, 1)
	i, j := 3, 17
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		_ = m.CostIfSwap(i, j)
		if k%64 == 0 {
			i, j = r.Intn(22), r.Intn(22)
		}
	}
}

func BenchmarkExecSwap(b *testing.B) {
	m, _, r := newBound(22, Options{}, 1)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		m.ExecSwap(r.Intn(22), r.Intn(22))
	}
}

func BenchmarkBind(b *testing.B) {
	m, cfg, _ := newBound(22, Options{}, 1)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		m.Bind(cfg)
	}
}

func BenchmarkReset(b *testing.B) {
	m, cfg, r := newBound(22, Options{}, 1)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		m.Reset(cfg, r)
	}
}
