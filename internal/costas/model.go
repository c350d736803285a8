// Package costas implements the Costas Array Problem (CAP) in the Adaptive
// Search formalism of §IV of the paper, together with the supporting
// substrate: verification, exact enumeration with known counts as oracles,
// dihedral symmetry classes, and the classical Welch and Lempel–Golomb
// algebraic constructions.
//
// A Costas array of order n is an n×n grid with one mark per row and column
// such that the n(n−1)/2 displacement vectors between marks are pairwise
// distinct. As a permutation V of {0..n−1}, the condition is that every row
// d of the *difference triangle* — the values V[i+d]−V[i] for
// i = 0..n−1−d — contains no repeated value.
package costas

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/csp"
	"repro/internal/rng"
)

// ErrFunc selects the per-row error weight ERR(d) charged for each repeated
// difference in row d (§IV-A/B of the paper).
type ErrFunc int

const (
	// ErrUnit is ERR(d) = 1: the basic model that simply counts repeats.
	// It is the default because, with this repository's engine dynamics,
	// it measures consistently faster than the quadratic weighting (see
	// the ablation benches and paperbench's ablation output; this is a
	// documented deviation from the paper's ≈17 % claim for its C
	// implementation).
	ErrUnit ErrFunc = iota
	// ErrQuadratic is ERR(d) = n²−d², the paper's tuned weight: it
	// penalises errors in the first rows (those containing more
	// differences) harder.
	ErrQuadratic
)

// Options tune the CAP model; the zero value is this library's tuned
// configuration (unit errors, Chang bound on, custom reset on).
type Options struct {
	// Err selects the error weight function.
	Err ErrFunc
	// FullTriangle disables Chang's optimisation and checks all n−1 rows
	// of the difference triangle instead of the sufficient first
	// ⌊(n−1)/2⌋ (§IV-B; ≈30 % slower, used by the ablation bench).
	FullTriangle bool
	// GenericReset disables the dedicated 3-perturbation reset procedure of
	// §IV-B2, falling back to the engine's generic percentage reset
	// (≈3.7× slower, used by the ablation bench).
	GenericReset bool
}

// Model is the CAP as a csp.Model with O(n) incremental move evaluation.
//
// It maintains, for each checked row d of the difference triangle, a
// multiset counter of the difference values present in the row. The global
// cost is
//
//	cost = Σ_d Σ_v max(0, count_d(v)−1) · ERR(d)
//
// i.e. every occurrence of a value after the first in its row is one error
// weighted by ERR(d) — exactly the left-to-right accounting of §IV-A.
type Model struct {
	n     int
	depth int   // number of triangle rows checked (Chang bound or n−1)
	w     []int // w[d] = ERR(d), d = 1..depth (index 0 unused)

	cfg []int // bound configuration (shared with the engine)

	// cnt is the difference-triangle counter matrix, flattened into one
	// contiguous block for cache locality: row d (1-based) starts at
	// rowBase[d] = (d−1)·width with width = 2n−1, and
	// cnt[rowBase[d] + v + n − 1] is the number of occurrences of
	// difference v in row d. int32 halves the footprint versus int — every
	// checked row of an order-18 instance fits in a handful of cache lines.
	cnt     []int32
	rowBase []int
	cost    int

	// varCost[v] is VarCost(v). It and pairX go stale at Bind and are
	// rebuilt by the first VarCost read after it; from then on CommitSwap
	// keeps both exact. pairX has the counters' layout: pairX[rowBase[d] +
	// v + n − 1] is the XOR of the start positions of row d's pairs that
	// hold difference v, so when a count crosses 1↔2 it names the lone
	// partner pair whose blame changes. Engines that never read VarCost
	// leave them stale and pay no upkeep.
	varCost  []int
	pairX    []int32
	varDirty bool

	genericReset bool

	// Scratch space (no allocation on the hot path; capacities are fixed
	// at construction and never grow — see TestScratchCapacityBounded).
	// All []int scratch shares one backing arena, and pairX shares cnt's,
	// so a whole Model costs 4 heap allocations — the per-solve setup
	// cost the table1 bench records (see TestPerSolveSetupAllocBudget).
	cand      []int // candidate configuration built by Reset
	best      []int // best candidate seen by Reset
	errVars   []int // indices of erroneous variables (Reset perturbation 3)
	resetKs   []int // circular-addition constants of §IV-B2, precomputed
	seenReset []int // per-row seen marks for scanCost; value = generation tag
	seenGen   int

	// Bit-plane cache of the counter matrix for the SWAR scan sweep,
	// allocated only when the row width fits one machine word (n ≤ 32 —
	// the paper's whole instance range). Row d owns three words:
	// planes[3(d−1)+k] has bit v set iff count_d(v) ≥ k+1, k = 0, 1, 2.
	// Maintenance is row-granular and lazy: Bind just bumps planeEpoch
	// (invalidating every row at O(1) cost), the scan rebuilds a stale
	// row from its counters the first time it sweeps it, and CommitSwap
	// flips the one bit each counter step changes — but ONLY for rows
	// that are currently valid. planeValid counts valid rows so the
	// commit path skips even the per-row staleness compares while no scan
	// has run since the last rebind: engines that never scan (pure
	// SwapDelta/ExecSwap users) pay a single integer test per commit.
	planes     []uint64
	planeGen   []int // planeGen[d] == planeEpoch ⇔ row d's planes are current
	planeEpoch int
	planeValid int // number of rows current at this epoch
}

// New returns a CAP model of order n with the given options.
// It panics if n < 1 — callers validate user input before this point.
func New(n int, opts Options) *Model {
	if n < 1 {
		panic(fmt.Sprintf("costas: invalid order %d", n))
	}
	depth := ChangDepth(n)
	if opts.FullTriangle {
		depth = n - 1
	}
	width := 2*n - 1
	m := &Model{
		n:            n,
		depth:        depth,
		genericReset: opts.GenericReset,
	}
	// One arena per element type: every []int scratch is a full-capacity
	// sub-slice of ints (so no slice can grow into its neighbour — the
	// capacities TestScratchCapacityBounded pins are real), and pairX
	// rides on the counter block's allocation. This keeps a whole Model at
	// 4 heap allocations (3 when n > 32 and the plane cache is absent);
	// table1's per-solve setup cost is pinned by
	// TestPerSolveSetupAllocBudget.
	ints := make([]int, 3*(depth+1)+4*n+4+(depth+1)*width)
	carve := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	m.w = carve(depth + 1)
	m.rowBase = carve(depth + 1)
	m.varCost = carve(n)
	m.cand = carve(n)
	m.best = carve(n)
	m.errVars = carve(n)[:0]
	m.resetKs = resetConstantsInto(carve(4)[:0], n)
	m.seenReset = carve((depth + 1) * width)
	m.planeGen = carve(depth + 1)
	cells := depth * width
	lanes := make([]int32, 2*cells)
	m.cnt = lanes[:cells:cells]
	m.pairX = lanes[cells:]
	if width <= 64 {
		m.planes = make([]uint64, 3*depth)
	}
	for d := 1; d <= depth; d++ {
		if opts.Err == ErrUnit {
			m.w[d] = 1
		} else {
			m.w[d] = n*n - d*d
		}
		m.rowBase[d] = (d - 1) * width
	}
	return m
}

// ChangDepth returns ⌊(n−1)/2⌋, the number of leading triangle rows whose
// distinctness suffices for the full Costas property (Chang 1987): a repeat
// at distance d implies a repeat at distance d' ≤ n−1−d, so any violation
// surfaces in the first half of the triangle.
func ChangDepth(n int) int {
	d := (n - 1) / 2
	if d < 1 {
		d = 1 // degenerate n ≤ 2: a single (possibly empty) row
	}
	if d > n-1 {
		d = n - 1
	}
	if n == 1 {
		return 0
	}
	return d
}

// Size implements csp.Model.
func (m *Model) Size() int { return m.n }

// Bind implements csp.Model: full O(n·depth) rebuild of counters and cost;
// per-variable errors wait for the next VarCost read.
func (m *Model) Bind(cfg []int) {
	if len(cfg) != m.n {
		panic(fmt.Sprintf("costas: Bind with configuration of length %d, want %d", len(cfg), m.n))
	}
	m.cfg = cfg
	m.cost = 0
	for i := range m.cnt {
		m.cnt[i] = 0
	}
	off := m.n - 1
	for d := 1; d <= m.depth; d++ {
		row := m.cnt[m.rowBase[d] : m.rowBase[d]+2*m.n-1]
		for i := 0; i+d < m.n; i++ {
			v := cfg[i+d] - cfg[i] + off
			row[v]++
			if row[v] > 1 {
				m.cost += m.w[d]
			}
		}
	}
	m.varDirty = true
	// O(1) plane invalidation: every row's planeGen now lags the epoch;
	// the scan rebuilds rows from the fresh counters on demand.
	m.planeEpoch++
	m.planeValid = 0
}

// Cost implements csp.Model (O(1): maintained incrementally).
func (m *Model) Cost() int { return m.cost }

// VarCost implements csp.Model. Every pair (V_i, V_{i+d}) whose difference
// is duplicated in row d charges ERR(d) to both of its endpoint variables —
// *all* occurrences are blamed, not just the ones after the first. (The
// global cost still counts each occurrence after the first once.) Blaming
// every conflicting pair is what the reference implementation does and it
// matters: charging only the "later" pair concentrates the culprit choice
// on a single variable and lets the search oscillate through it forever.
// The first read after Bind rebuilds all errors in O(n·depth); CommitSwap
// keeps them current from then on.
func (m *Model) VarCost(i int) int {
	if m.varDirty {
		m.recomputeVarCosts()
	}
	return m.varCost[i]
}

func (m *Model) recomputeVarCosts() {
	clear(m.varCost)
	clear(m.pairX)
	// The row counters are maintained incrementally, so one pass over the
	// triangle suffices: a pair is conflicting iff its value's count ≥ 2.
	off := m.n - 1
	for d := 1; d <= m.depth; d++ {
		row := m.cnt[m.rowBase[d]:]
		px := m.pairX[m.rowBase[d]:]
		for i := 0; i+d < m.n; i++ {
			v := m.cfg[i+d] - m.cfg[i] + off
			px[v] ^= int32(i)
			if row[v] >= 2 {
				m.varCost[i] += m.w[d]
				m.varCost[i+d] += m.w[d]
			}
		}
	}
	m.varDirty = false
}

// CostIfSwap implements csp.Model: O(depth) read-only hypothetical
// evaluation via SwapDelta.
func (m *Model) CostIfSwap(i, j int) int {
	return m.cost + m.SwapDelta(i, j)
}

// ExecSwap implements csp.Model: commit the swap and the counter deltas.
func (m *Model) ExecSwap(i, j int) {
	m.CommitSwap(i, j, m.SwapDelta(i, j))
}

// SwapDelta implements csp.ScanModel: the global-cost change a swap of
// positions i and j would cause, computed purely by *reading* the row
// counters — no counter writes, no undo log. This is the min-conflict probe
// kernel: Adaptive Search calls it ~n times per iteration, so it must not
// touch memory it would have to repair.
//
// Per checked row d at most four pairs change their difference: (i−d, i),
// (i, i+d), (j−d, j) and (j, j+d) — with (i, j) itself appearing once when
// j−i = d. A row's cost is Σ_v max(0, count_v−1)·ERR(d), so the row's delta
// is ERR(d)·Σ_v [max(0, count_v+net_v−1) − max(0, count_v−1)] over the ≤ 8
// difference values those pairs leave (net_v) or join (net_v positive).
// The tiny value/net merge tables live in registers/stack — the only memory
// reads are cfg and the ≤ 8 counter loads per row.
func (m *Model) SwapDelta(i, j int) int {
	if i == j {
		return 0
	}
	if j < i {
		i, j = j, i
	}
	cfg := m.cfg
	n := m.n
	vi, vj := cfg[i], cfg[j]
	off := n - 1
	cnt := m.cnt
	w := m.w
	width := 2*n - 1
	delta := 0
	base := 0
	for d := 1; d <= m.depth; d, base = d+1, base+width {
		row := cnt[base : base+width]
		// Gather the ≤ 4 pairs of row d whose difference changes (po/pn:
		// old/new counter index per pair) and accumulate the row's delta
		// optimistically, assuming all touched values are distinct — each
		// removal then loses one error iff its count ≥ 2, each addition
		// gains one iff its count ≥ 1. A uint64 bitmask over the value
		// indexes detects the rare same-row value collision (two pairs
		// leaving/joining the same difference), in which case the net
		// per-value merge in slowRowDelta re-derives the row exactly.
		// (For n ≥ 33 the v&63 bit folding can flag spurious collisions —
		// never miss real ones — which only costs the slow path.)
		var po, pn [4]int
		np := 0
		rowDelta := 0
		mask := uint64(0)
		clean := true
		if a := i - d; a >= 0 {
			ov, nv := vi-cfg[a]+off, vj-cfg[a]+off
			if ov != nv {
				po[np], pn[np] = ov, nv
				np++
				mask = 1<<uint(ov&63) | 1<<uint(nv&63)
				if row[ov] >= 2 {
					rowDelta--
				}
				if row[nv] >= 1 {
					rowDelta++
				}
			}
		}
		if b := i + d; b < n {
			ov, nv := cfg[b]-vi+off, cfg[b]-vj+off
			if b == j {
				nv = vi - vj + off // the (i, j) pair itself reverses sign
			}
			if ov != nv {
				po[np], pn[np] = ov, nv
				np++
				bm := uint64(1)<<uint(ov&63) | 1<<uint(nv&63)
				clean = clean && mask&bm == 0
				mask |= bm
				if row[ov] >= 2 {
					rowDelta--
				}
				if row[nv] >= 1 {
					rowDelta++
				}
			}
		}
		if a := j - d; a >= 0 && a != i {
			ov, nv := vj-cfg[a]+off, vi-cfg[a]+off
			if ov != nv {
				po[np], pn[np] = ov, nv
				np++
				bm := uint64(1)<<uint(ov&63) | 1<<uint(nv&63)
				clean = clean && mask&bm == 0
				mask |= bm
				if row[ov] >= 2 {
					rowDelta--
				}
				if row[nv] >= 1 {
					rowDelta++
				}
			}
		}
		if b := j + d; b < n { // b > j > i, so b ≠ i
			ov, nv := cfg[b]-vj+off, cfg[b]-vi+off
			if ov != nv {
				po[np], pn[np] = ov, nv
				np++
				bm := uint64(1)<<uint(ov&63) | 1<<uint(nv&63)
				clean = clean && mask&bm == 0
				if row[ov] >= 2 {
					rowDelta--
				}
				if row[nv] >= 1 {
					rowDelta++
				}
			}
		}
		if !clean {
			rowDelta = slowRowDelta(row, &po, &pn, np)
		}
		delta += w[d] * rowDelta
	}
	return delta
}

// slowRowDelta is SwapDelta's collision path: two changed pairs of one row
// touched the same difference value, so per-value net count adjustments are
// merged explicitly and the row's cost delta is recomputed from
// Σ_v max(0, count_v−1). Rare (the fast path's bitmask catches it), so
// clarity beats speed here.
func slowRowDelta(row []int32, po, pn *[4]int, np int) int {
	var vals, net [8]int
	nt := 0
	for k := 0; k < np; k++ {
		v := po[k]
		t := 0
		for ; t < nt; t++ {
			if vals[t] == v {
				break
			}
		}
		if t == nt {
			vals[nt] = v
			nt++
		}
		net[t]--
		v = pn[k]
		for t = 0; t < nt; t++ {
			if vals[t] == v {
				break
			}
		}
		if t == nt {
			vals[nt] = v
			nt++
		}
		net[t]++
	}
	rowDelta := 0
	for t := 0; t < nt; t++ {
		nv := net[t]
		if nv == 0 {
			continue
		}
		c := int(row[vals[t]])
		before := c - 1
		if before < 0 {
			before = 0
		}
		after := c + nv - 1
		if after < 0 {
			after = 0
		}
		rowDelta += after - before
	}
	return rowDelta
}

// CommitSwap implements csp.ScanModel: commit the swap, trusting delta
// (the caller's just-computed SwapDelta(i, j)) for the new global cost.
// This is the ONLY write path over the counters on the solve loop; it
// re-enumerates the changed pairs but skips all cost accounting.
func (m *Model) CommitSwap(i, j, delta int) {
	if j < i {
		i, j = j, i
	}
	cfg := m.cfg
	n := m.n
	vi, vj := cfg[i], cfg[j]
	if vi == vj { // i == j: nothing moves
		return
	}
	off, width := n-1, 2*n-1
	cnt, depth := m.cnt, m.depth
	planesValid, blame := m.planeValid > 0, !m.varDirty
	for d, base := 1, 0; d <= depth; d, base = d+1, base+width {
		// Keep a row's bit planes in sync ONLY while it is currently
		// valid; stale rows (no scan since the last rebind) are rebuilt
		// wholesale by the next sweep. planeValid == 0 — the never-scanned
		// case — skips even the per-row staleness compare. With stale
		// planes and stale errors the counter writes are all a move costs.
		fixP := planesValid && m.planeGen[d] == m.planeEpoch
		upkeep := fixP || blame
		row := cnt[base : base+width]
		// The ≤ 4 pairs of row d whose difference changes, each moved as
		// one exact transition of the row's multiset (vi ≠ vj, so no pair
		// keeps its value).
		if a := i - d; a >= 0 {
			ov, nv := vi-cfg[a]+off, vj-cfg[a]+off
			co, cn := row[ov], row[nv]
			row[ov], row[nv] = co-1, cn+1
			if upkeep {
				m.pairMoved(d, a, ov, nv, co, cn, fixP)
			}
		}
		if b := i + d; b < n {
			ov, nv := cfg[b]-vi+off, cfg[b]-vj+off
			if b == j {
				nv = vi - vj + off // the (i, j) pair itself reverses sign
			}
			co, cn := row[ov], row[nv]
			row[ov], row[nv] = co-1, cn+1
			if upkeep {
				m.pairMoved(d, i, ov, nv, co, cn, fixP)
			}
		}
		if a := j - d; a >= 0 && a != i {
			ov, nv := vj-cfg[a]+off, vi-cfg[a]+off
			co, cn := row[ov], row[nv]
			row[ov], row[nv] = co-1, cn+1
			if upkeep {
				m.pairMoved(d, a, ov, nv, co, cn, fixP)
			}
		}
		if b := j + d; b < n {
			ov, nv := cfg[b]-vj+off, cfg[b]-vi+off
			co, cn := row[ov], row[nv]
			row[ov], row[nv] = co-1, cn+1
			if upkeep {
				m.pairMoved(d, j, ov, nv, co, cn, fixP)
			}
		}
	}
	cfg[i], cfg[j] = vj, vi
	m.cost += delta
}

// pairMoved brings the row's bit planes (when fixP) and, when current,
// pairX and the per-variable errors up to date after CommitSwap moved the
// pair (p, p+d) of row d from value index ov (count co before) to nv
// (count cn before).
func (m *Model) pairMoved(d, p, ov, nv int, co, cn int32, fixP bool) {
	if fixP {
		// Plane k holds count ≥ k+1: a decrement from c clears plane c−1,
		// an increment from c sets plane c (planes 0–2 only).
		po := 3 * (d - 1)
		if co <= 3 {
			m.planes[po+int(co)-1] &^= 1 << uint(ov&63)
		}
		if cn <= 2 {
			m.planes[po+int(cn)] |= 1 << uint(nv&63)
		}
	}
	if m.varDirty {
		return
	}
	// A pair is blamed (ERR(d) on both endpoints) iff its value's count is
	// ≥ 2. Leaving a count-2 value unblames the lone partner left behind;
	// joining a count-1 value blames the lone pair already there.
	w := m.w[d]
	px := m.pairX[m.rowBase[d]:]
	px[ov] ^= int32(p)
	self := 0
	if co >= 2 {
		self -= w
		if co == 2 {
			q := int(px[ov])
			m.varCost[q] -= w
			m.varCost[q+d] -= w
		}
	}
	if cn >= 1 {
		self += w
		if cn == 1 {
			q := int(px[nv])
			m.varCost[q] += w
			m.varCost[q+d] += w
		}
	}
	px[nv] ^= int32(p)
	m.varCost[p] += self
	m.varCost[p+d] += self
}

// planeRebuildRow recomputes row d's planes from its counters and marks the
// row current — the O(width) slow path taken once per row after a rebind,
// on the row's first sweep.
func (m *Model) planeRebuildRow(d int) {
	row := m.cnt[m.rowBase[d] : m.rowBase[d]+2*m.n-1]
	var b1, b2, b3 uint64
	for v, c := range row {
		if c >= 1 {
			bit := uint64(1) << uint(v&63)
			b1 |= bit
			if c >= 2 {
				b2 |= bit
				if c >= 3 {
					b3 |= bit
				}
			}
		}
	}
	po := 3 * (d - 1)
	m.planes[po], m.planes[po+1], m.planes[po+2] = b1, b2, b3
	if m.planeGen[d] != m.planeEpoch {
		m.planeGen[d] = m.planeEpoch
		m.planeValid++
	}
}

// CostOf implements csp.ScanModel: the cost cfg would have once bound,
// scored by scanCost without a bound, so the model's binding, counters and
// bit planes are left as they were. Dialectic scores its synthesis path
// through it.
func (m *Model) CostOf(cfg []int) int {
	if len(cfg) != m.n {
		panic(fmt.Sprintf("costas: CostOf with configuration of length %d, want %d", len(cfg), m.n))
	}
	return m.scanCost(cfg, int(^uint(0)>>1))
}

// scanCost computes the global cost of an arbitrary configuration without
// touching the model's incremental state — used by CostOf and to evaluate
// the candidate perturbations generated by Reset. O(n·depth). Once the
// partial cost exceeds bound it returns early with that partial cost: any
// return value above bound means "more than bound", which is all Reset
// needs to know.
//
// When a row of the difference triangle fits one machine word (n ≤ 32, the
// same condition that enables the bit-plane scan cache) it uses the scan
// kernel's row-cost identity — cost(row) = #pairs − #distinct values — so a
// row costs one OR-accumulated presence mask and a single popcount instead
// of per-pair seen-mark bookkeeping. Wider instances keep the generation-
// tagged seen array.
func (m *Model) scanCost(cfg []int, bound int) int {
	n := m.n
	off := n - 1
	cost := 0
	if m.planes != nil {
		for d := 1; d <= m.depth && cost <= bound; d++ {
			var mask uint64
			for i, e := 0, n-d; i < e; i++ {
				mask |= uint64(1) << uint((cfg[i+d]-cfg[i]+off)&63)
			}
			cost += m.w[d] * (n - d - bits.OnesCount64(mask))
		}
		return cost
	}
	m.seenGen++
	gen := m.seenGen
	width := 2*n - 1
	for d := 1; d <= m.depth && cost <= bound; d++ {
		base := (d - 1) * width
		for i := 0; i+d < n; i++ {
			slot := base + cfg[i+d] - cfg[i] + off
			if m.seenReset[slot] == gen {
				cost += m.w[d]
			} else {
				m.seenReset[slot] = gen
			}
		}
	}
	return cost
}

// String renders the model's bound configuration as a grid (for debugging).
func (m *Model) String() string {
	if m.cfg == nil {
		return "costas.Model(unbound)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CAP n=%d cost=%d cfg=%v", m.n, m.cost, m.cfg)
	return b.String()
}

var _ csp.Model = (*Model)(nil)
var _ csp.ScanModel = (*Model)(nil)
var _ csp.Resetter = (*Model)(nil)

// Reset implements csp.Resetter with the dedicated escape procedure of
// §IV-B2. From the entry configuration it tries three perturbation families:
//
//  1. every sub-array starting or ending at the most erroneous variable V_m,
//     shifted circularly by one cell to the left and to the right;
//  2. adding a constant circularly (modulo n) to every variable, for the
//     constants 1, 2, n−2, n−3;
//  3. left-shifting by one cell the prefix ending at a randomly chosen
//     erroneous variable ≠ V_m (at most 3 variables tried).
//
// As soon as a candidate's cost is strictly below the entry cost it is
// adopted (the paper measures this happens in ≈32 % of calls); otherwise the
// best candidate overall is selected. Returns the new bound cost.
func (m *Model) Reset(cfg []int, r *rng.RNG) int {
	if m.genericReset {
		return m.genericResetProc(cfg, r)
	}
	entry := m.cost                // cfg is the bound configuration
	bestCost := int(^uint(0) >> 1) // MaxInt
	copy(m.best, cfg)              // safety net for degenerate sizes with no candidates
	n := m.n

	// try evaluates the candidate in m.cand; on strict improvement it
	// commits immediately (returns true), otherwise tracks the best with
	// uniform tie-breaking. The tie-breaking randomness is essential: a
	// deterministic "first best" choice can trap the search in a 2-cycle of
	// mutually-best perturbations at equal cost, never escaping the basin.
	improved := false
	bestTies := 0
	// A candidate costing more than both bestCost and entry−1 can neither
	// tie, beat the best nor improve, so its scan may stop there.
	try := func() bool {
		c := m.scanCost(m.cand, max(bestCost, entry-1))
		switch {
		case c < bestCost:
			bestCost = c
			bestTies = 1
			copy(m.best, m.cand)
		case c == bestCost:
			bestTies++
			if r.Intn(bestTies) == 0 {
				copy(m.best, m.cand)
			}
		}
		if c < entry {
			improved = true
			return true
		}
		return false
	}

	// Perturbation 1: sub-arrays around the most erroneous variable.
	// Reset is called with cfg == the bound configuration, so the model's
	// incremental per-variable errors are valid here (O(n·depth) total,
	// important because with RL=1 a reset fires at every local minimum).
	vm := m.mostErroneousVar(r)
	for lo := 0; lo < vm && !improved; lo++ {
		if m.shiftTry(cfg, lo, vm, try) {
			break
		}
	}
	for hi := vm + 1; hi < n && !improved; hi++ {
		if m.shiftTry(cfg, vm, hi, try) {
			break
		}
	}

	// Perturbation 2: circular constant addition.
	if !improved {
		for _, k := range m.resetKs {
			for p := 0; p < n; p++ {
				m.cand[p] = (cfg[p] + k) % n
			}
			if try() {
				break
			}
		}
	}

	// Perturbation 3: left-shift prefix up to an erroneous variable ≠ V_m.
	if !improved {
		m.errVars = m.errVars[:0]
		for v := 0; v < n; v++ {
			if v != vm && m.VarCost(v) > 0 {
				m.errVars = append(m.errVars, v)
			}
		}
		tries := 3
		for len(m.errVars) > 0 && tries > 0 {
			k := r.Intn(len(m.errVars))
			e := m.errVars[k]
			m.errVars[k] = m.errVars[len(m.errVars)-1]
			m.errVars = m.errVars[:len(m.errVars)-1]
			tries--
			copy(m.cand, cfg)
			leftRotate(m.cand[:e+1])
			if try() {
				break
			}
		}
	}

	copy(cfg, m.best)
	m.Bind(cfg)
	return m.cost
}

// shiftTry builds the two circular shifts (left, right) of cfg[lo..hi] into
// m.cand and evaluates them; it reports whether try() accepted one.
func (m *Model) shiftTry(cfg []int, lo, hi int, try func() bool) bool {
	copy(m.cand, cfg)
	leftRotate(m.cand[lo : hi+1])
	if try() {
		return true
	}
	copy(m.cand, cfg)
	rightRotate(m.cand[lo : hi+1])
	return try()
}

// resetConstantsInto appends the circular-addition constants of §IV-B2 (1,
// 2, n−2, n−3), filtered and deduplicated for small n, to out (a zero-len
// capacity-4 arena slice). It is called once at construction (m.resetKs) so
// Reset allocates nothing.
func resetConstantsInto(out []int, n int) []int {
	raw := [4]int{1, 2, n - 2, n - 3}
	for _, k := range raw {
		k = ((k % n) + n) % n
		if k == 0 {
			continue
		}
		dup := false
		for _, o := range out {
			if o == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// mostErroneousVar returns the index with maximum projected error in the
// bound configuration, breaking ties uniformly at random.
func (m *Model) mostErroneousVar(r *rng.RNG) int {
	bestErr := -1
	best := 0
	ties := 0
	for v := 0; v < m.n; v++ {
		e := m.VarCost(v)
		switch {
		case e > bestErr:
			bestErr, best, ties = e, v, 1
		case e == bestErr:
			ties++
			if r.Intn(ties) == 0 {
				best = v
			}
		}
	}
	return best
}

// varCostOf computes the projected error of variable v in an arbitrary
// configuration by brute force (reference semantics for tests): each pair
// containing v whose difference value is duplicated in its row charges
// ERR(d).
func (m *Model) varCostOf(cfg []int, v int) int {
	total := 0
	for d := 1; d <= m.depth; d++ {
		for i := 0; i+d < m.n; i++ {
			if i != v && i+d != v {
				continue
			}
			diff := cfg[i+d] - cfg[i]
			count := 0
			for k := 0; k+d < m.n; k++ {
				if cfg[k+d]-cfg[k] == diff {
					count++
				}
			}
			if count >= 2 {
				total += m.w[d]
			}
		}
	}
	return total
}

// genericResetProc is the engine-style percentage reset used when the
// dedicated procedure is disabled (ablation): it re-randomises 5 % of the
// variables (at least two) by random swaps, the paper's RL=1/RP=5 % default.
func (m *Model) genericResetProc(cfg []int, r *rng.RNG) int {
	n := m.n
	k := n * 5 / 100
	if k < 2 {
		k = 2
	}
	for t := 0; t < k; t++ {
		i, j := r.Intn(n), r.Intn(n)
		cfg[i], cfg[j] = cfg[j], cfg[i]
	}
	m.Bind(cfg)
	return m.cost
}

func leftRotate(s []int) {
	if len(s) < 2 {
		return
	}
	first := s[0]
	copy(s, s[1:])
	s[len(s)-1] = first
}

func rightRotate(s []int) {
	if len(s) < 2 {
		return
	}
	last := s[len(s)-1]
	copy(s[1:], s[:len(s)-1])
	s[0] = last
}
