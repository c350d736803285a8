package adaptive_test

import (
	"testing"
	"testing/quick"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/csp"
)

// sortModel is a deliberately simple permutation model for engine unit
// tests: cost = Σ_i [cfg[i] != i], i.e. the number of misplaced variables.
// Its unique solution is the identity permutation, min-conflict descent
// solves it quickly, and every cost is cheap to verify by hand.
type sortModel struct {
	cfg  []int
	n    int
	cost int
}

func newSortModel(n int) *sortModel { return &sortModel{n: n} }

func (s *sortModel) Size() int { return s.n }

func (s *sortModel) Bind(cfg []int) {
	s.cfg = cfg
	s.cost = 0
	for i, v := range cfg {
		if v != i {
			s.cost++
		}
	}
}

func (s *sortModel) Cost() int { return s.cost }

func (s *sortModel) VarCost(i int) int {
	if s.cfg[i] != i {
		return 1
	}
	return 0
}

func (s *sortModel) CostIfSwap(i, j int) int {
	afterI, afterJ := 0, 0
	if s.cfg[j] != i {
		afterI = 1
	}
	if s.cfg[i] != j {
		afterJ = 1
	}
	return s.cost + afterI + afterJ - s.VarCost(i) - s.VarCost(j)
}

func (s *sortModel) ExecSwap(i, j int) {
	s.cost = s.CostIfSwap(i, j)
	s.cfg[i], s.cfg[j] = s.cfg[j], s.cfg[i]
}

func capEngine(n int, seed uint64) (*costas.Model, *adaptive.Engine) {
	m := costas.New(n, costas.Options{})
	return m, adaptive.NewEngine(m, costas.TunedParams(n), seed)
}

func TestEngineSolvesSortModel(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		m := newSortModel(30)
		e := adaptive.NewEngine(m, adaptive.DefaultParams(), seed)
		if !e.Solve() {
			t.Fatalf("seed %d: engine failed on the trivial sort model", seed)
		}
		for i, v := range e.Solution() {
			if v != i {
				t.Fatalf("seed %d: claimed solution is wrong at %d", seed, i)
			}
		}
	}
}

func TestEngineSolvesCostasSmall(t *testing.T) {
	for _, n := range []int{5, 8, 10, 12, 13} {
		for seed := uint64(1); seed <= 5; seed++ {
			_, e := capEngine(n, seed)
			if !e.Solve() {
				t.Fatalf("n=%d seed=%d: engine did not solve", n, seed)
			}
			if sol := e.Solution(); !costas.IsCostas(sol) {
				t.Fatalf("n=%d seed=%d: claimed solution %v is not a Costas array", n, seed, sol)
			}
		}
	}
}

func TestEngineSolvesCostasMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium instance skipped in -short mode")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		_, e := capEngine(16, seed)
		if !e.Solve() {
			t.Fatalf("seed %d: CAP 16 unsolved", seed)
		}
		if !costas.IsCostas(e.Solution()) {
			t.Fatalf("seed %d: invalid CAP 16 solution", seed)
		}
	}
}

func TestEngineDefaultParamsSolveCostas(t *testing.T) {
	// The generic defaults (no CAP tuning) must still solve small CAPs —
	// slower, but correct.
	m := costas.New(10, costas.Options{})
	e := adaptive.NewEngine(m, adaptive.DefaultParams(), 3)
	if !e.Solve() {
		t.Fatal("default params failed on CAP 10")
	}
}

func TestEngineDeterministicGivenSeed(t *testing.T) {
	run := func() (adaptive.Stats, []int) {
		_, e := capEngine(12, 12345)
		e.Solve()
		return e.Stats(), e.Solution()
	}
	s1, sol1 := run()
	s2, sol2 := run()
	if s1 != s2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	for i := range sol1 {
		if sol1[i] != sol2[i] {
			t.Fatalf("same seed produced different solutions: %v vs %v", sol1, sol2)
		}
	}
}

func TestEngineSeedsDiverge(t *testing.T) {
	iters := map[int64]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		_, e := capEngine(12, seed)
		e.Solve()
		iters[e.Stats().Iterations] = true
	}
	if len(iters) < 2 {
		t.Fatal("8 different seeds all took identical iteration counts; walks are not independent")
	}
}

func TestStepQuantumBoundsWork(t *testing.T) {
	_, e := capEngine(14, 3)
	prev := int64(0)
	for !e.Step(100) {
		it := e.Stats().Iterations
		if it-prev > 100 {
			t.Fatalf("Step(100) advanced %d iterations", it-prev)
		}
		if it == prev && !e.Solved() {
			t.Fatal("Step made no progress")
		}
		prev = it
		if it > 5_000_000 {
			t.Fatal("CAP 14 not solved within 5M iterations; engine is broken")
		}
	}
	if !costas.IsCostas(e.Solution()) {
		t.Fatal("invalid solution after stepped solve")
	}
}

func TestMaxIterationsExhausts(t *testing.T) {
	p := costas.TunedParams(18)
	p.MaxIterations = 50
	m := costas.New(18, costas.Options{})
	e := adaptive.NewEngine(m, p, 1)
	if e.Solve() {
		t.Fatal("CAP 18 'solved' in 50 iterations — suspicious")
	}
	if !e.Exhausted() {
		t.Fatal("engine not marked exhausted")
	}
	if got := e.Stats().Iterations; got > 50 {
		t.Fatalf("ran %d iterations, budget 50", got)
	}
	before := e.Stats()
	e.Step(100)
	if e.Stats() != before {
		t.Fatal("Step advanced an exhausted engine")
	}
}

func TestRestartLimitTriggersRestarts(t *testing.T) {
	p := adaptive.DefaultParams()
	p.RestartLimit = 200
	p.MaxIterations = 5000
	m := costas.New(18, costas.Options{})
	e := adaptive.NewEngine(m, p, 7)
	e.Solve()
	if e.Solved() {
		return // lucky; nothing to assert
	}
	if e.Stats().Restarts == 0 {
		t.Fatalf("no restarts recorded after %d iterations with limit 200", e.Stats().Iterations)
	}
}

func TestRestartDisabled(t *testing.T) {
	p := adaptive.DefaultParams()
	p.RestartLimit = -1
	p.MaxIterations = 10000
	m := costas.New(18, costas.Options{})
	e := adaptive.NewEngine(m, p, 7)
	e.Solve()
	if e.Stats().Restarts != 0 {
		t.Fatalf("restarts recorded with RestartLimit=-1: %d", e.Stats().Restarts)
	}
}

func TestGenericResetPathUsedWithoutResetter(t *testing.T) {
	// sortModel has no Reset method, so stagnation must go through the
	// generic percentage reset; PlateauProb 0 forces frequent tabu marks.
	p := adaptive.DefaultParams()
	p.PlateauProb = 0
	m := newSortModel(20)
	e := adaptive.NewEngine(m, p, 5)
	if !e.Solve() {
		t.Fatal("sort model unsolved")
	}
}

func TestStatsAccounting(t *testing.T) {
	_, e := capEngine(13, 11)
	e.Solve()
	s := e.Stats()
	if s.Iterations <= 0 {
		t.Fatal("no iterations recorded")
	}
	if s.Swaps+s.PlateauMoves+s.LocalMinima == 0 {
		t.Fatal("no move/local-min events recorded")
	}
	moves := s.Swaps + s.PlateauMoves + s.UphillMoves
	if moves > s.Iterations {
		t.Fatalf("more moves (%d) than iterations (%d)", moves, s.Iterations)
	}
}

func TestSolutionIsCopy(t *testing.T) {
	_, e := capEngine(10, 2)
	e.Solve()
	sol := e.Solution()
	sol[0] = -99
	if e.Solution()[0] == -99 {
		t.Fatal("Solution exposes internal state")
	}
}

func TestAlreadySolvedAtInit(t *testing.T) {
	for _, n := range []int{1, 2} {
		_, e := capEngine(n, 9)
		if !e.Solve() {
			t.Fatalf("n=%d should be solved trivially", n)
		}
		if !costas.IsCostas(e.Solution()) {
			t.Fatalf("n=%d solution invalid", n)
		}
	}
}

func TestZeroParamsSanitised(t *testing.T) {
	// All-zero params (invalid) must be sanitised rather than crash or
	// hang: the engine fixes ResetLimit/TabuTenure/RestartLimit.
	m := costas.New(8, costas.Options{})
	e := adaptive.NewEngine(m, adaptive.Params{PlateauProb: 0.5}, 4)
	if !e.Solve() {
		t.Fatal("engine with sanitised params failed on CAP 8")
	}
}

func TestRestartFromInstallsConfiguration(t *testing.T) {
	m := costas.New(10, costas.Options{})
	e := adaptive.NewEngine(m, costas.TunedParams(10), 8)
	sol := costas.First(10) // a known solution
	e.RestartFrom(sol)
	if !e.Solved() {
		t.Fatal("RestartFrom with a solution did not mark engine solved")
	}
	got := e.Solution()
	for i := range sol {
		if got[i] != sol[i] {
			t.Fatal("RestartFrom did not install the given configuration")
		}
	}
	if e.Stats().Restarts == 0 {
		t.Fatal("RestartFrom not counted as a restart")
	}
}

func TestRestartFromRejectsGarbage(t *testing.T) {
	m := costas.New(10, costas.Options{})
	e := adaptive.NewEngine(m, costas.TunedParams(10), 8)
	defer func() {
		if recover() == nil {
			t.Fatal("RestartFrom accepted a non-permutation")
		}
	}()
	e.RestartFrom([]int{0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
}

func TestTraceHookObservesIterations(t *testing.T) {
	_, e := capEngine(10, 6)
	var events int64
	e.Trace = func(iter int64, cost, culprit, bestCost int, action string) {
		events++
		if action == "" {
			t.Fatal("empty action in trace")
		}
	}
	e.Solve()
	if events == 0 {
		t.Fatal("trace hook never fired")
	}
	if events != e.Stats().Iterations {
		t.Fatalf("trace events %d != iterations %d", events, e.Stats().Iterations)
	}
}

// Property: whatever happens during a bounded run, the solution stays a
// permutation and the model's incremental cost stays truthful.
func TestQuickEngineInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%10) + 6
		m := costas.New(n, costas.Options{})
		p := costas.TunedParams(n)
		p.MaxIterations = 2000
		e := adaptive.NewEngine(m, p, seed)
		e.Solve()
		sol := e.Solution()
		if !csp.IsPermutation(sol) {
			return false
		}
		check := costas.New(n, costas.Options{})
		check.Bind(sol)
		return check.Cost() == m.Cost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: solved engines always hold true Costas arrays.
func TestQuickSolutionsAreCostas(t *testing.T) {
	f := func(seed uint64) bool {
		_, e := capEngine(10, seed)
		e.Solve()
		return costas.IsCostas(e.Solution())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineIterationCAP18(b *testing.B) {
	m := costas.New(18, costas.Options{})
	e := adaptive.NewEngine(m, costas.TunedParams(18), 1)
	b.ResetTimer()
	e.Step(b.N) // cost per iteration including resets and restarts
}

func BenchmarkSolveCAP12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := costas.New(12, costas.Options{})
		e := adaptive.NewEngine(m, costas.TunedParams(12), uint64(i))
		if !e.Solve() {
			b.Fatal("unsolved")
		}
	}
}
