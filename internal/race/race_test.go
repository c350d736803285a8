package race

import (
	"reflect"
	"testing"

	"repro/internal/csp"
	"repro/internal/walk"
)

// obsFor builds one window of observations: walker i ran assign[i] and
// sits at boundary cost costs[i], having advanced `iters` iterations.
func obsFor(assign []int, costs []int, iters int64) []walk.WalkerObs {
	obs := make([]walk.WalkerObs, len(assign))
	for i := range assign {
		obs[i] = walk.WalkerObs{Arm: assign[i], Delta: csp.Stats{Iterations: iters}, Cost: costs[i]}
	}
	return obs
}

func counts(assign []int, nArms int) []int {
	n := make([]int, nArms)
	for _, a := range assign {
		n[a]++
	}
	return n
}

func moved(prev, next []int) int {
	m := 0
	for i := range prev {
		if prev[i] != next[i] {
			m++
		}
	}
	return m
}

// constCosts gives every walker on arm a the cost costs[a].
func constCosts(assign []int, costs ...int) []int {
	out := make([]int, len(assign))
	for i, a := range assign {
		out[i] = costs[a]
	}
	return out
}

func TestInitialSplitAlignedToPortfolio(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 8})
	if got, want := c.Assign(0), []int{0, 1, 0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("2-arm initial split = %v, want portfolio layout %v", got, want)
	}
	c3 := NewController([]string{"a", "b", "c"}, Config{Walkers: 8})
	if got, want := c3.Assign(0), []int{0, 1, 2, 0, 1, 2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("3-arm initial split = %v, want portfolio layout %v", got, want)
	}
}

func TestDeadbandStandsPat(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 8})
	assign := c.Assign(0)
	// Arm b consistently worse but within the deadband, and BOTH arms keep
	// finding new best costs (so the stagnation penalty never applies):
	// the controller must never move a walker.
	for w := 0; w < 8; w++ {
		c.Observe(w, obsFor(assign, constCosts(assign, 30-w, 40-w), 256))
		next := c.Assign(w + 1)
		if !reflect.DeepEqual(next, assign) {
			t.Fatalf("window %d: moved walkers inside the deadband: %v -> %v", w, assign, next)
		}
	}
}

func TestConfirmationStreakDelaysMigration(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 8})
	assign := c.Assign(0)

	// Window 0: decisive gap (100 ≥ 10 × 1.5) — but only one window of
	// evidence. No migration yet.
	c.Observe(0, obsFor(assign, constCosts(assign, 10, 100), 256))
	a1 := c.Assign(1)
	if !reflect.DeepEqual(a1, assign) {
		t.Fatalf("migrated after a single decisive window: %v -> %v", assign, a1)
	}

	// Window 1: the same arm leads decisively again — confirmed. Walkers
	// migrate toward arm a, at most walkers/4 = 2 per boundary.
	c.Observe(1, obsFor(a1, constCosts(a1, 10, 100), 256))
	a2 := c.Assign(2)
	if m := moved(a1, a2); m == 0 || m > 2 {
		t.Fatalf("confirmed migration moved %d walkers, want 1..2 (cap walkers/4)", m)
	}
	if n := counts(a2, 2); n[0] <= 4 {
		t.Fatalf("confirmed migration did not fund the leading arm: counts %v", n)
	}
}

func TestConfirmationStreakResetsOnLeaderFlip(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 8})
	assign := c.Assign(0)
	// Alternate which arm looks decisively better: the leader never
	// repeats, so the streak never reaches confirmStreak and nothing
	// moves — the spike filter.
	for w := 0; w < 8; w++ {
		costs := constCosts(assign, 10, 100)
		if w%2 == 1 {
			costs = constCosts(assign, 100, 10)
		}
		c.Observe(w, obsFor(assign, costs, 256))
		next := c.Assign(w + 1)
		if !reflect.DeepEqual(next, assign) {
			t.Fatalf("window %d: flapping leader still triggered migration", w)
		}
	}
}

func TestMigrationCapPerBoundary(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 16})
	assign := c.Assign(0)
	// Sustained massive gap: the softmax wants nearly the whole fleet on
	// arm a, but each boundary may move at most 16/4 = 4 walkers.
	prev := assign
	for w := 0; w < 6; w++ {
		c.Observe(w, obsFor(prev, constCosts(prev, 2, 200), 256))
		next := c.Assign(w + 1)
		if m := moved(prev, next); m > 4 {
			t.Fatalf("window %d moved %d walkers, cap is 4", w, m)
		}
		prev = next
	}
	// Within a few boundaries the stable leader absorbs the fleet down to
	// the exploration floor (≥ 1 walker per arm).
	n := counts(prev, 2)
	if n[0] < 15 || n[1] < 1 {
		t.Fatalf("stable leader did not absorb the fleet: counts %v", n)
	}
}

func TestStagnationPenalisesOnlyTrailingArm(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 8})
	assign := c.Assign(0)
	// Arm a parks at cost 5 (the trajectory frontier), arm b parks at 7 —
	// more than one unit behind. Raw costs are inside the deadband
	// (7 < 5 × 1.5), so only the stagnation penalty can separate them.
	for w := 0; w < 6; w++ {
		c.Observe(w, obsFor(assign, constCosts(assign, 5, 7), 256))
		assign = c.Assign(w + 1)
	}
	scores := c.Scores()
	if scores["a"] != 5 {
		t.Fatalf("frontier arm must never be stagnation-penalised: score a = %v", scores["a"])
	}
	if scores["b"] <= 7 {
		t.Fatalf("trailing parked arm must be inflated past its EMA: score b = %v", scores["b"])
	}
	if n := counts(assign, 2); n[0] <= n[1] {
		t.Fatalf("fleet did not shift off the stagnant laggard: counts %v", n)
	}
}

func TestAdjacentCostLevelIsNotStagnant(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 8})
	assign := c.Assign(0)
	// Arm b parks ONE unit above the frontier: adjacent cost levels are
	// plateau noise, not evidence — no penalty, no migration, ever.
	for w := 0; w < 12; w++ {
		c.Observe(w, obsFor(assign, constCosts(assign, 5, 6), 256))
		next := c.Assign(w + 1)
		if !reflect.DeepEqual(next, assign) {
			t.Fatalf("window %d: migrated off an arm one cost level behind", w)
		}
	}
	if s := c.Scores(); s["b"] != 6 {
		t.Fatalf("adjacent arm was penalised: score b = %v", s["b"])
	}
}

func TestControllerIsDeterministic(t *testing.T) {
	feed := func(c *Controller) [][]int {
		assign := c.Assign(0)
		for w := 0; w < 8; w++ {
			costs := make([]int, len(assign))
			for i, a := range assign {
				// A deterministic but wiggly cost pattern.
				costs[i] = 10 + 7*a + (i*w)%5
			}
			c.Observe(w, obsFor(assign, costs, 256))
			assign = c.Assign(w + 1)
		}
		return c.Schedule()
	}
	c1 := NewController([]string{"a", "b", "c"}, Config{Walkers: 10, Seed: 42})
	c2 := NewController([]string{"a", "b", "c"}, Config{Walkers: 10, Seed: 42})
	if !reflect.DeepEqual(feed(c1), feed(c2)) {
		t.Fatal("identical observation sequences produced different schedules")
	}
}

func TestHalvingDefundsWorstArms(t *testing.T) {
	c := NewController([]string{"a", "b", "c", "d"}, Config{Walkers: 8})
	assign := c.Assign(0)
	// Arms c and d are decisively terrible; a leads. After the
	// confirmation streak the halving phase must start moving walkers off
	// the losing half (cap walkers/4 = 2 per boundary).
	prev := assign
	for w := 0; w < 6; w++ {
		c.Observe(w, obsFor(prev, constCosts(prev, 10, 12, 80, 90), 256))
		prev = c.Assign(w + 1)
	}
	n := counts(prev, 4)
	if n[2]+n[3] >= 4 {
		t.Fatalf("halving left the losing arms funded: counts %v", n)
	}
	if n[0] < n[2] || n[0] < n[3] {
		t.Fatalf("best arm not favoured after halving: counts %v", n)
	}
}

func TestWindowDefaultAndOverride(t *testing.T) {
	if w := NewController([]string{"a"}, Config{Walkers: 1}).Window(0); w != DefaultWindow {
		t.Fatalf("zero config window = %d, want DefaultWindow %d", w, DefaultWindow)
	}
	c := NewController([]string{"a"}, Config{Walkers: 1, Window: 64})
	for _, w := range []int{0, 1, 7} {
		if got := c.Window(w); got != 64 {
			t.Fatalf("Window(%d) = %d, want the configured 64", w, got)
		}
	}
}

func TestArmStatsAccumulateDeltas(t *testing.T) {
	c := NewController([]string{"a", "b"}, Config{Walkers: 4})
	assign := c.Assign(0)
	c.Observe(0, obsFor(assign, constCosts(assign, 3, 4), 128))
	c.Observe(1, obsFor(assign, constCosts(assign, 3, 4), 128))
	st := c.ArmStats()
	if st["a"].Iterations != 512 || st["b"].Iterations != 512 {
		t.Fatalf("arm stats = %+v, want 2 walkers × 2 windows × 128 iterations per arm", st)
	}
}

func TestExpNegDeterministicApproximation(t *testing.T) {
	if expNeg(0) != 1 {
		t.Fatalf("expNeg(0) = %v, want 1", expNeg(0))
	}
	if expNeg(40) != 0 {
		t.Fatalf("expNeg(40) = %v, want hard 0 past the cut-off", expNeg(40))
	}
	// Monotone decreasing and close to e^-z on the range the softmax uses.
	last := 1.0
	for _, z := range []float64{0.1, 0.5, 1, 2, 4, 8, 16, 31} {
		v := expNeg(z)
		if v <= 0 || v >= last {
			t.Fatalf("expNeg not strictly decreasing at z=%v: %v (prev %v)", z, v, last)
		}
		last = v
	}
	if v := expNeg(1); v < 0.3678 || v > 0.3679 {
		t.Fatalf("expNeg(1) = %v, want ≈ 1/e", v)
	}
}
