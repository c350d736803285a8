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
	c := NewController([]string{"a", "b"}, 8)
	if got, want := c.Assign(0), []int{0, 1, 0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("2-arm initial split = %v, want portfolio layout %v", got, want)
	}
	c3 := NewController([]string{"a", "b", "c"}, 8)
	if got, want := c3.Assign(0), []int{0, 1, 2, 0, 1, 2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("3-arm initial split = %v, want portfolio layout %v", got, want)
	}
}

func TestDeadbandStandsPat(t *testing.T) {
	c := NewController([]string{"a", "b"}, 8)
	assign := c.Assign(0)
	// Arm b consistently worse but within the deadband (40−w < 1.5 ×
	// (30−w) at every window w): the controller must never move a walker.
	for w := 0; w < 8; w++ {
		c.Observe(w, obsFor(assign, constCosts(assign, 30-w, 40-w), 256))
		next := c.Assign(w + 1)
		if !reflect.DeepEqual(next, assign) {
			t.Fatalf("window %d: moved walkers inside the deadband: %v -> %v", w, assign, next)
		}
	}
}

func TestConfirmationStreakDelaysMigration(t *testing.T) {
	c := NewController([]string{"a", "b"}, 8)
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
	c := NewController([]string{"a", "b"}, 8)
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
	c := NewController([]string{"a", "b"}, 16)
	assign := c.Assign(0)
	// Sustained massive gap: winner-take-all wants the whole fleet on arm
	// a, but each boundary may move at most 16/4 = 4 walkers.
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
	c1 := NewController([]string{"a", "b", "c"}, 10)
	c2 := NewController([]string{"a", "b", "c"}, 10)
	if !reflect.DeepEqual(feed(c1), feed(c2)) {
		t.Fatal("identical observation sequences produced different schedules")
	}
}

func TestWindowIsDefault(t *testing.T) {
	c := NewController([]string{"a"}, 1)
	for _, w := range []int{0, 1, 7} {
		if got := c.Window(w); got != DefaultWindow {
			t.Fatalf("Window(%d) = %d, want DefaultWindow %d", w, got, DefaultWindow)
		}
	}
}

func TestArmStatsAccumulateDeltas(t *testing.T) {
	c := NewController([]string{"a", "b"}, 4)
	assign := c.Assign(0)
	c.Observe(0, obsFor(assign, constCosts(assign, 3, 4), 128))
	c.Observe(1, obsFor(assign, constCosts(assign, 3, 4), 128))
	st := c.ArmStats()
	if st["a"].Iterations != 512 || st["b"].Iterations != 512 {
		t.Fatalf("arm stats = %+v, want 2 walkers × 2 windows × 128 iterations per arm", st)
	}
}

func TestLeaderAbsorbsFleetDownToFloor(t *testing.T) {
	c := NewController([]string{"a", "b", "c", "d"}, 8)
	prev := c.Assign(0)
	// Arm a leads decisively and keeps leading: once the streak confirms
	// it, the leader takes the fleet down to the exploration floor (one
	// walker per other arm, since 8 ≥ 2 × 4), at most 8/4 = 2 walkers
	// per boundary.
	for w := 0; w < 8; w++ {
		c.Observe(w, obsFor(prev, constCosts(prev, 10, 30, 40, 50), 256))
		next := c.Assign(w + 1)
		if m := moved(prev, next); m > 2 {
			t.Fatalf("window %d moved %d walkers, cap is 2", w, m)
		}
		prev = next
	}
	if n, want := counts(prev, 4), []int{5, 1, 1, 1}; !reflect.DeepEqual(n, want) {
		t.Fatalf("counts %v, want the leader holding all but one walker per other arm %v", n, want)
	}
}

func TestFleetSmallerThanArmCount(t *testing.T) {
	c := NewController([]string{"a", "b", "c", "d"}, 2)
	ran := make([]bool, 4)
	assign := c.Assign(0)
	for w := 0; w < 8; w++ {
		if len(assign) != 2 {
			t.Fatalf("window %d: assignment %v for 2 walkers", w, assign)
		}
		for _, a := range assign {
			if a < 0 || a >= 4 {
				t.Fatalf("window %d: arm index %d out of range in %v", w, a, assign)
			}
			ran[a] = true
		}
		c.Observe(w, obsFor(assign, constCosts(assign, 10, 20, 30, 40), 256))
		assign = c.Assign(w + 1)
	}
	for a, ok := range ran {
		if !ok {
			t.Fatalf("arm %d never ran a window with 2 walkers over 4 arms", a)
		}
	}
}
