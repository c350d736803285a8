// Package race implements the racing allocator of the portfolio mode:
// a deterministic controller that moves multi-walk walkers toward the
// method ("arm") winning on the instance actually being solved.
//
// Which method reaches a solution first varies by instance and size, so
// a static round-robin portfolio spends a fixed share of the fleet on
// losing methods for the whole run. The controller observes each
// walker's csp.Stats deltas (Stats.Sub) and boundary cost over fixed
// iteration windows and re-splits the fleet with five mechanisms:
//
//   - a portfolio-aligned initial split: walker i starts on arm i mod A,
//     the static portfolio's layout, so a walker that never migrates
//     walks the same trajectory as its round-robin twin;
//   - a windowed cost score per arm: an EMA of the arm's best boundary
//     cost weighted over its mean;
//   - a deadband: no walker moves unless the worst arm scores at least
//     (1+deadband)× the best;
//   - a confirmation streak: the same arm must lead decisively for
//     confirmStreak windows in a row;
//   - capped winner-take-all: the leader's target is the whole fleet
//     but one walker per other arm while the fleet has two walkers per
//     arm, surplus arms release their worst-cost walkers first, and at
//     most a quarter of the fleet moves per boundary.
//
// While no arm leads decisively for long enough, a racing run is
// bit-identical to the round-robin portfolio. Once walkers move it can
// beat round-robin or lose to it on a given seed. DESIGN.md §11 has the
// measured counts, and the declared grid on which successive halving, a
// softmax temperature and a stagnation penalty were measured and
// deleted.
//
// Determinism contract: a Controller is a pure function of its arms,
// its walker count and the sequence of observations fed to Observe — no
// wall clock, no RNG, no state carried over from earlier runs. The walk
// scheduler calls Observe/Assign from a single goroutine in a fixed
// order, so fixed-seed lockstep racing runs are bit-reproducible at any
// MaxParallelism: same winner, same stats, same allocation schedule
// (see Schedule).
package race

import (
	"sort"
	"sync"

	"repro/internal/csp"
	"repro/internal/walk"
)

// DefaultWindow is the reallocation cadence in iterations of virtual
// time per walker. It is a compromise pinned by the two failure modes:
// windows much shorter than a method's restart period score noise (a
// boundary snapshot of a descent barely begun says nothing about the
// method), windows longer than the expected makespan never reallocate
// at all. 256 was chosen empirically on the perfbench racing suite — a
// geometric doubling schedule (64·2^w) was tried and measured strictly
// worse on the hard cells: the noisy early decision points it buys on
// easy instances trigger confirmed-but-wrong migrations on hard ones.
const DefaultWindow = 256

// deadband is the relative score separation below which the controller
// refuses to reallocate at all: the worst arm must score at least
// (1+deadband)× the best before any walker migrates. Migration is never
// free — a moved walker forfeits the trajectory it was on and pays an
// engine restart — so when the arms are statistically close the optimal
// play is exactly the static portfolio, and the aligned initial split
// (see initialLocked) means standing pat IS the static portfolio. Only
// decisive evidence is worth spending tickets on; boundary costs of
// near-equal methods routinely drift 10–40% apart for a few windows,
// so the bar is set above that noise floor.
const deadband = 0.5

// confirmStreak is the number of consecutive windows the same arm must
// lead decisively before the controller acts on it (see
// confirmedLocked).
const confirmStreak = 2

// Controller implements walk.Allocator for a fixed set of named arms.
type Controller struct {
	mu      sync.Mutex
	arms    []string
	walkers int

	ema    []float64   // per-arm cost score, EMA over windows (lower is better)
	scored []bool      // arm has at least one observed window
	cum    []csp.Stats // per-arm accumulated windowed deltas

	lastCost   []int // per-walker boundary cost of the last observed window
	lastAssign []int
	schedule   [][]int

	streak     int // consecutive windows the same arm led decisively
	streakBest int // that arm, -1 before any decisive window
}

var _ walk.Allocator = (*Controller)(nil)

// NewController builds a controller racing the named arms with a fleet
// of walkers (at least one). It does not register with the live
// telemetry — call Activate when the run starts and Close when it ends.
func NewController(arms []string, walkers int) *Controller {
	if len(arms) == 0 {
		panic("race: no arms")
	}
	if walkers < 1 {
		walkers = 1
	}
	return &Controller{
		arms:       append([]string(nil), arms...),
		walkers:    walkers,
		ema:        make([]float64, len(arms)),
		scored:     make([]bool, len(arms)),
		cum:        make([]csp.Stats, len(arms)),
		lastCost:   make([]int, walkers),
		streakBest: -1,
	}
}

// Window implements walk.Allocator: a fixed cadence for every window.
// (The walk contract allows per-window schedules; a geometric one was
// tried and measured worse — see DefaultWindow.)
func (c *Controller) Window(int) int64 { return DefaultWindow }

// Observe implements walk.Allocator: fold window w's per-walker deltas
// and boundary costs into the arm scores.
func (c *Controller) Observe(w int, obs []walk.WalkerObs) {
	c.mu.Lock()
	defer c.mu.Unlock()

	nArms := len(c.arms)
	count := make([]int, nArms)
	sum := make([]int64, nArms)
	min := make([]int, nArms)
	for i := range min {
		min[i] = -1
	}
	for i, o := range obs {
		c.cum[o.Arm] = c.cum[o.Arm].Add(o.Delta)
		if i < len(c.lastCost) {
			c.lastCost[i] = o.Cost
		}
		count[o.Arm]++
		sum[o.Arm] += int64(o.Cost)
		if min[o.Arm] < 0 || o.Cost < min[o.Arm] {
			min[o.Arm] = o.Cost
		}
	}
	for a := 0; a < nArms; a++ {
		if count[a] == 0 {
			continue
		}
		mean := float64(sum[a]) / float64(count[a])
		// The arm's best walker carries the signal (the fleet stops at the
		// FIRST solution); the mean guards against a lone lucky outlier.
		score := float64(min[a]) + 0.5*(mean-float64(min[a]))
		if c.scored[a] {
			c.ema[a] = 0.5*c.ema[a] + 0.5*score
		} else {
			c.ema[a] = score
			c.scored[a] = true
		}
	}
}

// Assign implements walk.Allocator: the walker→arm assignment for window
// w. Assign(0) is the initial split; later windows apply the policy to
// the scores accumulated by Observe.
func (c *Controller) Assign(w int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()

	var assign []int
	if w == 0 {
		assign = c.initialLocked()
	} else {
		assign = c.reassignLocked()
	}
	c.lastAssign = assign
	c.schedule = append(c.schedule, append([]int(nil), assign...))
	return append([]int(nil), assign...)
}

// initialLocked builds the window-0 split: walker i starts on arm
// i % nArms — the EXACT layout the static portfolio mode uses. The
// alignment is deliberate and load-bearing: walkers that never migrate
// then walk bit-identical trajectories to their round-robin twins, so a
// racing run can only differ from the static portfolio through walkers
// it chose to move. (An earlier design rotated the order by the master
// seed for cosmetic arm fairness; on heavy-tailed solve-time
// distributions the decorrelated seed→arm pairing cost far more than
// the fairness was worth.)
func (c *Controller) initialLocked() []int {
	nArms := len(c.arms)
	assign := make([]int, c.walkers)
	for i := range assign {
		assign[i] = i % nArms
	}
	return assign
}

// reassignLocked computes the next window's targets (see targetsLocked)
// and converts them into an assignment that moves as few walkers as
// possible — surplus arms release their worst-cost walkers first, and at
// most maxMoveLocked walkers migrate per boundary.
//
// The migration cap is what keeps racing competitive with the static
// portfolio it replaces: every moved walker pays an engine restart
// (position kept, adaptive memory lost), so letting a flapping EMA
// leader drag most of the fleet back and forth each window costs more
// than the better arm gains. Capped, a stable leader still absorbs the
// whole fleet within a few windows, while a noisy one only perturbs a
// couple of walkers per flip.
func (c *Controller) reassignLocked() []int {
	if !c.confirmedLocked() {
		return append([]int(nil), c.lastAssign...)
	}
	targets := c.targetsLocked()

	cur := make([]int, len(c.arms))
	for _, a := range c.lastAssign {
		cur[a]++
	}
	next := append([]int(nil), c.lastAssign...)

	// Surplus arms release walkers, worst boundary cost first (they lose
	// the least by restarting on a new arm); ties release the higher
	// walker index. The globally worst maxMoveLocked released walkers
	// migrate; the rest stay put until the next boundary. The movers then
	// fill deficit arms in arm order — all deterministic.
	var pool []int
	for a := range c.arms {
		if cur[a] <= targets[a] {
			continue
		}
		var members []int
		for i, arm := range c.lastAssign {
			if arm == a {
				members = append(members, i)
			}
		}
		sort.Slice(members, func(x, y int) bool {
			cx, cy := c.lastCost[members[x]], c.lastCost[members[y]]
			if cx != cy {
				return cx > cy
			}
			return members[x] > members[y]
		})
		for _, i := range members[:cur[a]-targets[a]] {
			pool = append(pool, i)
		}
	}
	if max := c.maxMoveLocked(); len(pool) > max {
		sort.Slice(pool, func(x, y int) bool {
			cx, cy := c.lastCost[pool[x]], c.lastCost[pool[y]]
			if cx != cy {
				return cx > cy
			}
			return pool[x] > pool[y]
		})
		for _, i := range pool[max:] {
			cur[c.lastAssign[i]]++ // stays on its arm this window
		}
		pool = pool[:max]
	}
	sort.Ints(pool)
	p := 0
	for a := range c.arms {
		for cur[a] < targets[a] && p < len(pool) {
			next[pool[p]] = a
			cur[a]++
			p++
		}
	}
	return next
}

// maxMoveLocked bounds how many walkers may change arms at one window
// boundary: a quarter of the fleet, at least one.
func (c *Controller) maxMoveLocked() int {
	m := c.walkers / 4
	if m < 1 {
		m = 1
	}
	return m
}

// confirmedLocked reports whether the evidence justifies moving walkers
// this window: the scores must be decisive (see decisiveLocked) AND the
// same arm must have led decisively for confirmStreak consecutive
// windows. A one-window EMA spike — a few walkers of the leading arm
// all snapshotting a bad boundary at once — can look decisive in the
// wrong direction; acting on it round-trips walkers through two engine
// restarts for nothing. Persistence is the cheapest spike filter that
// keeps the controller a pure function of the observation sequence.
func (c *Controller) confirmedLocked() bool {
	decisive, leader := c.decisiveLocked()
	if !decisive {
		c.streak, c.streakBest = 0, -1
		return false
	}
	if leader < 0 {
		// An arm has never run (fleet smaller than the arm count): fund
		// it without waiting — ignorance is not a spike.
		return true
	}
	if leader == c.streakBest {
		c.streak++
	} else {
		c.streak, c.streakBest = 1, leader
	}
	return c.streak >= confirmStreak
}

// decisiveLocked reports whether the observed scores justify moving any
// walker at all — the worst-scoring arm must be at least (1+deadband)×
// the best — and which arm leads. An arm that has never run (fleet
// smaller than the arm count) counts as decisive with no leader (-1):
// it deserves its window before the fleet settles.
func (c *Controller) decisiveLocked() (bool, int) {
	best, worst, leader, n := 0.0, 0.0, -1, 0
	for a := range c.arms {
		if !c.scored[a] {
			return true, -1
		}
		if n == 0 || c.ema[a] < best {
			best = c.ema[a]
			leader = a
		}
		if n == 0 || c.ema[a] > worst {
			worst = c.ema[a]
		}
		n++
	}
	return n >= 2 && worst >= best*(1+deadband), leader
}

// targetsLocked returns the per-arm walker counts for the next window:
// winner-take-all. The lowest-scoring arm takes the fleet; every other
// arm keeps one walker while the fleet has at least two walkers per arm
// (the exploration floor), and an arm that has never run gets one walker
// regardless — it deserves its window before the fleet settles.
func (c *Controller) targetsLocked() []int {
	leader := -1
	for a := range c.arms {
		if c.scored[a] && (leader < 0 || c.ema[a] < c.ema[leader]) {
			leader = a
		}
	}
	targets := make([]int, len(c.arms))
	left := c.walkers
	for a := range c.arms {
		if a != leader && left > 0 && (!c.scored[a] || c.walkers >= 2*len(c.arms)) {
			targets[a] = 1
			left--
		}
	}
	targets[leader] = left
	return targets
}

// ArmStats returns the per-arm cumulative csp.Stats attributed by the
// windowed observations. Summed over arms they equal the run's total
// engine stats — the final (partial) window is observed too.
func (c *Controller) ArmStats() map[string]csp.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]csp.Stats, len(c.arms))
	for a, name := range c.arms {
		out[name] = c.cum[a]
	}
	return out
}

// ArmOf returns the arm name walker i ran in the last assigned window.
func (c *Controller) ArmOf(i int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.lastAssign) {
		return "", false
	}
	return c.arms[c.lastAssign[i]], true
}

// Allocation returns the current walkers-per-arm split.
func (c *Controller) Allocation() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.arms))
	for _, name := range c.arms {
		out[name] = 0
	}
	for _, a := range c.lastAssign {
		out[c.arms[a]]++
	}
	return out
}

// Scores returns the per-arm scores the policy acts on — the
// boundary-cost EMA (lower is better); arms never observed are absent.
func (c *Controller) Scores() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.arms))
	for a, name := range c.arms {
		if c.scored[a] {
			out[name] = c.ema[a]
		}
	}
	return out
}

// Schedule returns the full allocation history: one walker→arm slice per
// assigned window, in order. Lockstep racing runs with equal seeds
// produce identical schedules at any MaxParallelism — the bit-identity
// tests compare exactly this.
func (c *Controller) Schedule() [][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]int, len(c.schedule))
	for i, s := range c.schedule {
		out[i] = append([]int(nil), s...)
	}
	return out
}
