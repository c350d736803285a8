// Package race implements the racing allocator of the portfolio mode:
// a deterministic bandit that reallocates multi-walk walkers toward the
// method ("arm") winning on the instance actually being solved.
//
// The paper's own tables motivate it: which method — and which parameter
// set — reaches a solution first varies by instance and size, so a static
// round-robin portfolio burns a fixed fraction of the fleet on losing
// methods for the whole run. The racing controller instead observes each
// walker's csp.Stats deltas (Stats.Sub) and boundary costs over fixed
// iteration windows and re-splits the fleet:
//
//   - successive halving early: the first ⌈log₂ A⌉ windows split walkers
//     equally over the surviving arms and halve the survivor set at each
//     boundary, so clearly losing methods are defunded after one window;
//   - softmax steady state after: walkers are distributed proportionally
//     to exp(−(score−best)/T) over ALL arms (a defunded arm can come
//     back if the leader stalls), with an exploration floor of one walker
//     per arm while capacity allows — the UCB-style insurance against
//     locking onto an early fluke.
//
// Both phases act only on decisive evidence: while the arms' effective
// scores sit within a relative deadband of each other the controller
// stands pat, and thanks to the portfolio-aligned initial split
// "standing pat" is bit-identical to the static round-robin portfolio —
// racing degrades to the baseline, never below it, when the instance
// refuses to name a winner.
//
// Scores are exponential moving averages of windowed boundary costs
// (best walker weighted over the arm's mean), so they track the current
// phase of the search rather than its whole history. A relative
// stagnation penalty inflates the score of an arm whose best-ever cost
// has stalled for longer than the freshest arm's: raw boundary cost is
// a trap on instances where one method descends quickly to a low-cost
// plateau and parks there while another oscillates at higher cost but
// keeps finding new lows on its way to a solution — cost says fund the
// stuck arm, progress says defund it. Progress wins.
//
// Determinism contract: a Controller is a pure function of its
// construction parameters (arms, walker count, master seed) and the
// sequence of observations fed to Observe — no wall clock, no global
// RNG, no state carried over from earlier runs. The walk scheduler
// calls Observe/Assign from a single goroutine in a fixed order, so
// fixed-seed lockstep racing runs are bit-reproducible at any
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

// stagGrace is the staleness (windows without a new best-ever cost)
// forgiven before the stagnation penalty starts compounding on a
// trajectory-lagging arm (see effLocked). Two windows absorb ordinary
// plateau noise; beyond that each stale window inflates the arm's
// effective score by half its EMA, so a parked laggard is overtaken
// within a handful of windows.
const stagGrace = 2

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

// Config tunes a Controller. The zero value of every field except
// Walkers has a sensible default. Nothing in it carries what earlier
// runs learned: window 0 is always the portfolio-aligned split (see
// initialLocked), so a fixed-seed racing solve depends on its own
// inputs alone.
type Config struct {
	// Walkers is the fleet size the controller allocates (≥ 1).
	Walkers int
	// Window, when > 0, overrides the reallocation cadence in iterations
	// (0 = DefaultWindow).
	Window int64
	// Seed is the run's master seed, recorded for telemetry. Allocation
	// decisions are driven purely by the windowed observations — the
	// initial split is pinned to the portfolio layout (see initialLocked)
	// rather than seed-randomised, so walkers that never migrate stay
	// bit-identical to their static round-robin twins.
	Seed uint64
}

// Controller implements walk.Allocator for a fixed set of named arms.
type Controller struct {
	mu      sync.Mutex
	arms    []string
	walkers int
	window  int64
	seed    uint64

	halvingLeft int    // halving boundaries still to apply
	alive       []bool // survivor set during the halving phase

	ema      []float64   // per-arm cost score, EMA over windows (lower is better)
	scored   []bool      // arm has at least one observed window
	windows  []int       // observed windows per arm
	bestCost []int       // best boundary cost seen per arm (-1 = none)
	stale    []int       // consecutive observed windows without improving bestCost
	cum      []csp.Stats // per-arm accumulated windowed deltas

	lastCost   []int // per-walker boundary cost of the last observed window
	lastAssign []int
	schedule   [][]int

	streak     int // consecutive windows the same arm led decisively
	streakBest int // that arm, -1 before any decisive window
}

var _ walk.Allocator = (*Controller)(nil)

// NewController builds a controller for the named arms. It does not
// register with the live telemetry — call Activate when the run starts
// and Close when it ends.
func NewController(arms []string, cfg Config) *Controller {
	if len(arms) == 0 {
		panic("race: no arms")
	}
	if cfg.Walkers < 1 {
		cfg.Walkers = 1
	}
	if cfg.Window < 1 {
		cfg.Window = DefaultWindow
	}
	c := &Controller{
		arms:     append([]string(nil), arms...),
		walkers:  cfg.Walkers,
		window:   cfg.Window,
		seed:     cfg.Seed,
		alive:    make([]bool, len(arms)),
		ema:      make([]float64, len(arms)),
		scored:   make([]bool, len(arms)),
		windows:  make([]int, len(arms)),
		bestCost: make([]int, len(arms)),
		stale:    make([]int, len(arms)),
		cum:      make([]csp.Stats, len(arms)),
		lastCost: make([]int, cfg.Walkers),
	}
	c.streakBest = -1
	for i := range c.alive {
		c.alive[i] = true
		c.bestCost[i] = -1
	}
	for h := 1; h < len(arms); h *= 2 {
		c.halvingLeft++ // ⌈log₂ A⌉ halvings reduce A arms to one
	}
	return c
}

// Names returns the arm names in index order.
func (c *Controller) Names() []string { return append([]string(nil), c.arms...) }

// Window implements walk.Allocator: a fixed cadence for every window.
// (The walk contract allows per-window schedules; a geometric one was
// tried and measured worse — see DefaultWindow.)
func (c *Controller) Window(int) int64 { return c.window }

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
		c.windows[a]++
		if c.bestCost[a] < 0 || min[a] < c.bestCost[a] {
			c.bestCost[a] = min[a]
			c.stale[a] = 0
		} else {
			c.stale[a]++
		}
	}
}

// effLocked is the score the allocation policy acts on: the cost EMA
// inflated by the stagnation penalty. The penalty applies ONLY to an arm
// whose best-ever cost trails the best trajectory across arms by more
// than one cost unit, compounding +50% of its EMA per stale window past
// the grace. The gate is what keeps the penalty honest at both ends of
// a run: an arm hovering at (or within a unit of — adjacent cost levels
// are plateau noise, not evidence) the fleet's best cost is hovering
// next to the solution — it cannot "improve" short of solving and must
// not be punished for that — while an arm parked two or more levels
// higher is spending iterations with nothing to show against a rival
// that got measurably closer. Only the clear laggard can be stale.
func (c *Controller) effLocked(a int) float64 {
	s := c.ema[a]
	if c.bestCost[a] <= c.minBestCostLocked()+1 {
		return s
	}
	if k := c.stale[a] - stagGrace; k > 0 {
		s *= 1 + 0.5*float64(k)
	}
	return s
}

// minBestCostLocked is the lowest best-ever boundary cost across scored
// arms — the trajectory frontier the stagnation gate compares against.
func (c *Controller) minBestCostLocked() int {
	min := -1
	for a := range c.arms {
		if c.bestCost[a] < 0 {
			continue
		}
		if min < 0 || c.bestCost[a] < min {
			min = c.bestCost[a]
		}
	}
	return min
}

// Assign implements walk.Allocator: the walker→arm assignment for window
// w. Assign(0) is the initial split; later windows apply the halving /
// softmax policy to the scores accumulated by Observe.
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
// racing run can only lose to the static portfolio through walkers it
// chose to move off a losing arm — reallocation is pure upside on the
// arms it keeps. (An earlier design rotated the order by the master
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

// reassignLocked computes the next window's targets (halving or softmax)
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
		eff := c.effLocked(a)
		if n == 0 || eff < best {
			best = eff
			leader = a
		}
		if n == 0 || eff > worst {
			worst = eff
		}
		n++
	}
	return n >= 2 && worst >= best*(1+deadband), leader
}

// targetsLocked returns the per-arm walker counts for the next window.
func (c *Controller) targetsLocked() []int {
	if c.halvingLeft > 0 && c.aliveCountLocked() > 1 {
		c.halveLocked()
	}
	if c.halvingLeft > 0 {
		return c.equalSplitLocked(c.alive)
	}
	return c.softmaxLocked()
}

func (c *Controller) aliveCountLocked() int {
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// halveLocked keeps the best ⌈k/2⌉ alive arms by EMA score. Arms that
// never got a walker (fleet smaller than the arm count) rank ahead of
// scored arms — they deserve their window before being judged.
func (c *Controller) halveLocked() {
	var ranked []int
	for a, alive := range c.alive {
		if alive {
			ranked = append(ranked, a)
		}
	}
	sort.SliceStable(ranked, func(x, y int) bool {
		ax, ay := ranked[x], ranked[y]
		if c.scored[ax] != c.scored[ay] {
			return !c.scored[ax] // unscored first
		}
		if !c.scored[ax] {
			return ax < ay
		}
		if sx, sy := c.effLocked(ax), c.effLocked(ay); sx != sy {
			return sx < sy
		}
		return ax < ay
	})
	keep := (len(ranked) + 1) / 2
	for _, a := range ranked[keep:] {
		c.alive[a] = false
	}
	c.halvingLeft--
}

// equalSplitLocked splits the fleet equally over the arms marked in
// members, extras going to the lowest-scoring (best) arms first.
func (c *Controller) equalSplitLocked(members []bool) []int {
	var idx []int
	for a, in := range members {
		if in {
			idx = append(idx, a)
		}
	}
	sort.SliceStable(idx, func(x, y int) bool {
		ax, ay := idx[x], idx[y]
		sx, sy := c.scoreOrInf(ax), c.scoreOrInf(ay)
		if sx != sy {
			return sx < sy
		}
		return ax < ay
	})
	targets := make([]int, len(c.arms))
	for i, a := range idx {
		targets[a] = c.walkers / len(idx)
		if i < c.walkers%len(idx) {
			targets[a]++
		}
	}
	return targets
}

func (c *Controller) scoreOrInf(a int) float64 {
	if !c.scored[a] {
		return -1 // unscored ranks best: optimism under ignorance
	}
	return c.effLocked(a)
}

// softmaxLocked distributes the fleet proportionally to
// exp(−(ema−best)/T) with T scaled to the observed score spread, then
// enforces the exploration floor (≥ 1 walker per arm while the fleet has
// at least two walkers per arm to spare).
func (c *Controller) softmaxLocked() []int {
	nArms := len(c.arms)
	eff := make([]float64, nArms)
	best, any := 0.0, false
	for a := 0; a < nArms; a++ {
		if !c.scored[a] {
			continue
		}
		eff[a] = c.effLocked(a)
		if !any || eff[a] < best {
			best = eff[a]
		}
		any = true
	}
	if !any {
		return c.equalSplitLocked(allTrue(nArms))
	}
	// Temperature scales with the leader's score, not the spread: an arm
	// is down-weighted by how much WORSE than the leader it is in
	// relative terms, so a 5% gap between near-equal arms stays a
	// near-equal split instead of being amplified into a lopsided one.
	// z = 1 at exactly the deadband boundary.
	temp := deadband * best
	if temp < 0.25 {
		temp = 0.25
	}
	weights := make([]float64, nArms)
	var total float64
	for a := 0; a < nArms; a++ {
		z := 0.5 // unscored arms get a mild exploration weight
		if c.scored[a] {
			z = (eff[a] - best) / temp
		}
		weights[a] = expNeg(z)
		total += weights[a]
	}

	// Largest-remainder rounding: floors first, leftovers to the largest
	// fractional parts (ties to the lower arm index).
	targets := make([]int, nArms)
	frac := make([]float64, nArms)
	given := 0
	for a := 0; a < nArms; a++ {
		exact := float64(c.walkers) * weights[a] / total
		targets[a] = int(exact)
		frac[a] = exact - float64(targets[a])
		given += targets[a]
	}
	order := make([]int, nArms)
	for a := range order {
		order[a] = a
	}
	sort.SliceStable(order, func(x, y int) bool {
		if frac[order[x]] != frac[order[y]] {
			return frac[order[x]] > frac[order[y]]
		}
		return order[x] < order[y]
	})
	for i := 0; given < c.walkers; i = (i + 1) % nArms {
		targets[order[i]]++
		given++
	}

	// Exploration floor: one walker per arm, funded by the largest
	// targets, while the fleet is large enough to afford it.
	if c.walkers >= 2*nArms {
		for a := 0; a < nArms; a++ {
			for targets[a] == 0 {
				big, bigN := 0, -1
				for b := 0; b < nArms; b++ {
					if targets[b] > bigN {
						big, bigN = b, targets[b]
					}
				}
				if bigN <= 1 {
					break
				}
				targets[big]--
				targets[a]++
			}
		}
	}
	return targets
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// expNeg computes e^−z for z ≥ 0 with a cut-off: beyond z = 32 the
// weight is effectively zero. A small rational approximation keeps the
// softmax bit-identical across architectures (math.Exp has per-platform
// assembly implementations whose last ulp may differ — enough to flip an
// integer rounding in the allocation schedule between CI runners).
func expNeg(z float64) float64 {
	if z <= 0 {
		return 1
	}
	if z >= 32 {
		return 0
	}
	// e^−z = (e^−z/64)^64 via (1 − t + t²/2 − t³/6 + t⁴/24) with t = z/64
	// ≤ 0.5: the truncation error per factor is < 2⁻³⁸, amplified 64× it
	// stays far below the rounding granularity the allocator acts on.
	t := z / 64
	p := 1 - t + t*t/2 - t*t*t/6 + t*t*t*t/24
	for i := 0; i < 6; i++ { // p^64 by repeated squaring
		p *= p
	}
	return p
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

// Scores returns the per-arm effective scores the policy acts on — the
// boundary-cost EMA inflated by any stagnation penalty (lower is
// better); arms never observed are absent.
func (c *Controller) Scores() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.arms))
	for a, name := range c.arms {
		if c.scored[a] {
			out[name] = c.effLocked(a)
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
