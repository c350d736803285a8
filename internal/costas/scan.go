package costas

// The batched neighborhood-scan kernel: one pass over the flattened
// difference triangle computes the cost delta of swapping position i with
// EVERY other position. This is the data-level-parallel counterpart of the
// per-probe SwapDelta — the Adaptive Search inner loop evaluates the whole
// neighborhood of the worst variable before committing one move, so probing
// candidates one at a time re-derives the same per-row state (the two pairs
// that contain position i, their current difference values, their counter
// thresholds) n−1 times per pass. ScanSwaps hoists all of that to row scope
// and sweeps the candidates in branch-light inner loops.
//
// Exactness contract: ScanSwaps(i, deltas) leaves deltas[j] == SwapDelta(i,
// j) for every j (for a suffix view, deltas[k] == SwapDelta(i, from+k)),
// bit for bit, and writes nothing to the model's internal state. The fuzz
// and parity suites pin both properties, which is what lets the engines
// adopt the batch path without any trajectory drift.
//
// Shape of the computation. Fix i with value vi. For a candidate j (value
// vj) and a checked row d, at most four pairs change their difference:
//
//	A = (i−d, i)   old vi−x,       new vj−x        (x = cfg[i−d])
//	B = (i, i+d)   old y−vi,       new y−vj        (y = cfg[i+d])
//	C = (j−d, j)   old vj−u,       new vi−u        (u = cfg[j−d])
//	D = (j, j+d)   old t−vj,       new t−vi        (t = cfg[j+d])
//
// A and B do not depend on j except through vj: their removal side is
// ROW-CONSTANT and is computed once per row. Two sweep implementations
// share that row-scope hoisting:
//
// SWAR sweep (n ≤ 32, i.e. a triangle row fits one uint64). Per row the
// cost is Σ_v max(0, count(v)−1) = #pairs − #distinct values, and #pairs
// is swap-invariant, so the row's delta is exactly (#distinct values
// before) − (#distinct values after). Both counts are popcounts against
// the model's bit-plane cache (count ≥ 1/2/3 presence words per row; Bind
// invalidates all rows at O(1), the sweep rebuilds a stale row on first
// touch, CommitSwap flips the bit each counter step changes in valid rows
// only — see model.go). "Before" is row-constant; "after" is the
// presence word with the vanishing values cleared and the added values
// set, built in registers: the changed pairs' removals form a 2-entry
// carry-save counter (seeded with the row-constant A/B removals) that
// picks the values whose count drops to zero, and the additions are one
// OR-ed mask. That is exact for removal multiplicities up to two; the
// ~0.1 % of candidates where THREE pairs remove one value overflow the
// counter, are detected exactly, and take the exact per-value merge. The
// row prologue is register constants only, and the inner loops are
// shift/or/popcount straight line, region-split so the C/D existence tests
// are hard-wired (j < min(d, n−d): only D; the middle: both or neither;
// j ≥ max(d, n−d): only C). The candidates j = i ± d, where the pair
// (i, j) belongs to the row and reverses sign, are scored in the same
// register algebra after the sweep.
//
// Gather sweep (n ≥ 33). The additions and the C/D pairs are per-candidate
// counter loads and comparisons, accumulated optimistically (a removal
// loses an error iff its count ≥ 2, an addition gains one iff its count
// ≥ 1), which is exact while all touched values are distinct. A uint64
// bitmask over the touched value indexes detects collisions the same way
// the per-probe kernel does — popcount(mask) falling short of the
// operation count routes the candidate's ROW through the exact per-value
// merge right there in the sweep, while the other rows of the candidate
// keep their optimistic accumulation. The v&63 bit folding can flag
// spurious collisions — never miss real ones — which only costs the merge
// for that (row, candidate). The special candidates j = i ± d are skipped
// by the sweep and scored out of line with the same counter discipline.
//
// Both sweeps accumulate straight into the caller's deltas view and cost
// only the candidates [from, n) it asks for: tabu search and dialectic
// descent, which read the j > i half of each row, pay for half the
// neighborhood.

import (
	"fmt"
	"math/bits"
)

// ScanSwaps implements csp.ScanModel: deltas is a suffix view of the
// swap-delta row, deltas[k] = SwapDelta(i, from+k) with from = n −
// len(deltas), computed in one pass over the difference triangle for the
// candidates [from, n) only. A full-length slice is the whole row. The
// probe changes nothing observable through the model interface (counters,
// cost, per-variable errors, configuration); it does settle the
// lazily-maintained bit-plane cache, which is an internal accelerator
// structure only. deltas must not be longer than n.
func (m *Model) ScanSwaps(i int, deltas []int) {
	if len(deltas) > m.n {
		panic(fmt.Sprintf("costas: ScanSwaps with deltas of length %d, want at most %d", len(deltas), m.n))
	}
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("costas: ScanSwaps position %d out of range [0,%d)", i, m.n))
	}
	clear(deltas)
	if m.planes != nil {
		m.scanSwar(i, deltas)
	} else {
		m.scanGather(i, deltas)
	}
}

// b2i returns 1 when c is true — the branch-free accumulation primitive of
// the gather sweep (compiles to SETcc, no branch).
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// scanSwar is the bit-plane sweep — every row of a width ≤ 64 model. Per
// row d it reads the presence words P1 (count ≥ 1), c1 (count exactly 1)
// and c2 (count exactly 2), and per candidate it builds in registers
//
//	after = P1 &^ (Rlo&c1 | Rhi&c2) | A
//
// where A is the set of added differences and Rlo/Rhi the removed ones as
// a 2-bit carry-save counter (lo = removed once, hi = removed twice): a
// value removed once vanishes iff its count is 1, removed twice iff it is
// 2, and any value some pair joins (A) is present afterwards whatever was
// removed — a count-0 value cannot be removed, and a joined value's count
// ends ≥ 1. Addition multiplicity never matters, so A is a plain OR. The
// row's delta is popcount(P1) − popcount(after); the sweep accumulates
// −ERR(d)·popcount(after) and adds Σ_d ERR(d)·popcount(P1) to every
// candidate at the end. j = i lands on 0 without a special case: every
// pair rejoins the value it left, so after == P1 in every row.
//
// Bits are indexed by difference mod 64 (the plane words rotated right by
// n−1 in the prologue, injective since a row spans 2n−1 ≤ 63 values), so
// no offset is added per candidate. The addition of pair A is bit
// (vj−x)&63 = rotl(gA, vj) with gA = rotl(1, −x), and that of B is bit
// (y−vj)&63 = rotl(gB, −vj) with gB = rotl(1, y); an absent pair's gate is
// 0, which every rotation keeps 0, so absent pairs cost no branch and no
// mask. The carry-save counter is seeded with the row-constant removals
// of A and B (which absorbs A and B holding the same value), and a third
// removal of one value overflows it; such candidates are rare, are
// collected in a bitmask, and take the exact per-value merge after the
// sweep. The special candidates i ± d are not excluded from the
// branch-free loops: their slots are saved before the sweep and rewritten
// with their own register-algebra value after it.
func (m *Model) scanSwar(i int, out []int) {
	n, cfg := m.n, m.cfg
	from := n - len(out)
	rot := -(n - 1) // planes keep difference v at bit v+n−1
	vi := cfg[i]
	before := 0 // Σ_d ERR(d)·popcount(P1_d)
	for d := 1; d <= m.depth; d++ {
		if m.planeGen[d] != m.planeEpoch {
			m.planeRebuildRow(d)
		}
		pl := m.planes[3*(d-1) : 3*d]
		p1 := bits.RotateLeft64(pl[0], rot)
		c1 := bits.RotateLeft64(pl[0]&^pl[1], rot)
		c2 := bits.RotateLeft64(pl[1]&^pl[2], rot)
		wd := m.w[d]
		k1 := bits.OnesCount64(p1)
		before += wd * k1

		// Row constants of pairs A = (i−d, i) and B = (i, i+d): the removal
		// seed and the addition gates.
		var bA, bB, gA, gB uint64
		if a := i - d; a >= 0 {
			bA = 1 << uint((vi-cfg[a])&63)
			gA = bits.RotateLeft64(1, -cfg[a])
		}
		if b := i + d; b < n {
			bB = 1 << uint((cfg[b]-vi)&63)
			gB = bits.RotateLeft64(1, cfg[b])
		}
		rKlo, rKhi := bA^bB, bA&bB

		low, high := uint(i-d-from), uint(i+d-from)
		var keepLow, keepHigh int
		if low < uint(len(out)) {
			keepLow = out[low]
		}
		if high < uint(len(out)) {
			keepHigh = out[high]
		}

		// Pair C exists for j ≥ d, pair D for j < n−d. For Chang-depth
		// rows d ≤ n−d and the middle region has both pairs; FullTriangle
		// rows can have d > n−d, where the middle region has neither.
		b1, b2 := d, n-d
		both := true
		if b1 > b2 {
			b1, b2 = b2, b1
			both = false
		}
		var ovfs uint64 // candidates whose removals overflowed, bit j

		// Region 1: j < min(d, n−d) — pair C absent, pair D present.
		for j := from; j < b1; j++ {
			vj, t := cfg[j], cfg[j+d]
			bD := uint64(1) << uint((t-vj)&63)
			if rKhi&bD != 0 {
				ovfs |= 1 << uint(j&63)
				continue
			}
			Rlo, Rhi := rKlo^bD, rKhi|rKlo&bD
			A := bits.RotateLeft64(gA, vj) | bits.RotateLeft64(gB, -vj) |
				1<<uint((t-vi)&63)
			out[j-from] -= wd * bits.OnesCount64(p1&^(Rlo&c1|Rhi&c2)|A)
		}

		// Region 2: min(d, n−d) ≤ j < max(d, n−d).
		if both {
			for j := max(from, b1); j < b2; j++ {
				vj, u, t := cfg[j], cfg[j-d], cfg[j+d]
				bC := uint64(1) << uint((vj-u)&63)
				bD := uint64(1) << uint((t-vj)&63)
				ovf := rKhi & bC
				Rlo, Rhi := rKlo^bC, rKhi|rKlo&bC
				ovf |= Rhi & bD
				Rlo, Rhi = Rlo^bD, Rhi|Rlo&bD
				if ovf != 0 {
					ovfs |= 1 << uint(j&63)
					continue
				}
				A := bits.RotateLeft64(gA, vj) | bits.RotateLeft64(gB, -vj) |
					1<<uint((vi-u)&63) | 1<<uint((t-vi)&63)
				out[j-from] -= wd * bits.OnesCount64(p1&^(Rlo&c1|Rhi&c2)|A)
			}
		} else {
			kept := p1 &^ (rKlo&c1 | rKhi&c2)
			for j := max(from, b1); j < b2; j++ {
				vj := cfg[j]
				A := bits.RotateLeft64(gA, vj) | bits.RotateLeft64(gB, -vj)
				out[j-from] -= wd * bits.OnesCount64(kept|A)
			}
		}

		// Region 3: j ≥ max(d, n−d) — pair C present, pair D absent.
		for j := max(from, b2); j < n; j++ {
			vj, u := cfg[j], cfg[j-d]
			bC := uint64(1) << uint((vj-u)&63)
			if rKhi&bC != 0 {
				ovfs |= 1 << uint(j&63)
				continue
			}
			Rlo, Rhi := rKlo^bC, rKhi|rKlo&bC
			A := bits.RotateLeft64(gA, vj) | bits.RotateLeft64(gB, -vj) |
				1<<uint((vi-u)&63)
			out[j-from] -= wd * bits.OnesCount64(p1&^(Rlo&c1|Rhi&c2)|A)
		}

		// Overflowed candidates take the exact merge, entered as delta −
		// popcount(P1) like every other candidate of the row.
		for ovfs != 0 {
			j := bits.TrailingZeros64(ovfs)
			ovfs &= ovfs - 1
			out[j-from] += wd * (m.exactRowDelta(d, i, j) - k1)
		}

		// Special candidates of row d. The pair (i, j) belongs to the row:
		// its removal is already in the seed (bA for j = i−d, bB for
		// j = i+d) and its addition is the reversed difference vj−vi or
		// vi−vj. The other i-side pair adds through its gate, and the one
		// j-side pair that is not (i, j) — C = (j−d, j) below i, D =
		// (j, j+d) above — removes and adds as in the sweep.
		if low < uint(len(out)) {
			j := i - d
			vj := cfg[j]
			Rlo, Rhi, ovf := rKlo, rKhi, uint64(0)
			A := 1<<uint((vj-vi)&63) | bits.RotateLeft64(gB, -vj)
			if j >= d {
				u := cfg[j-d]
				bC := uint64(1) << uint((vj-u)&63)
				ovf, Rlo, Rhi = Rhi&bC, Rlo^bC, Rhi|Rlo&bC
				A |= 1 << uint((vi-u)&63)
			}
			delta := -bits.OnesCount64(p1&^(Rlo&c1|Rhi&c2) | A)
			if ovf != 0 {
				delta = m.exactRowDelta(d, i, j) - k1
			}
			out[low] = keepLow + wd*delta
		}
		if high < uint(len(out)) {
			j := i + d
			vj := cfg[j]
			Rlo, Rhi, ovf := rKlo, rKhi, uint64(0)
			A := 1<<uint((vi-vj)&63) | bits.RotateLeft64(gA, vj)
			if j+d < n {
				t := cfg[j+d]
				bD := uint64(1) << uint((t-vj)&63)
				ovf, Rlo, Rhi = Rhi&bD, Rlo^bD, Rhi|Rlo&bD
				A |= 1 << uint((t-vi)&63)
			}
			delta := -bits.OnesCount64(p1&^(Rlo&c1|Rhi&c2) | A)
			if ovf != 0 {
				delta = m.exactRowDelta(d, i, j) - k1
			}
			out[high] = keepHigh + wd*delta
		}
	}
	for k := range out {
		out[k] += before
	}
}

// scanGather is the counter-gather sweep — every row of a width > 64
// model, which cannot pack a row into one plane word. Per row it hoists
// the removal side of pairs A and B (their old values, counter thresholds
// and collision-mask bits, merged exactly when A and B currently hold the
// same difference), sweeps the candidates outside the row's special
// positions i−d, i, i+d in runGather, and then scores j = i ± d out of
// line in special.
func (m *Model) scanGather(i int, out []int) {
	n := m.n
	cfg := m.cfg
	cnt := m.cnt
	vi := cfg[i]
	off := n - 1
	width := 2*n - 1
	from := n - len(out)

	// One row-constant block reused across rows (a fresh composite literal
	// per row costs a measurable struct copy in this loop).
	var rc scanRowConst
	rc.m, rc.cfg, rc.acc = m, cfg, out
	rc.lo, rc.off, rc.vi, rc.i = from, off, vi, i

	base := 0
	for d := 1; d <= m.depth; d, base = d+1, base+width {
		row := cnt[base : base+width]

		// Row constants: the removal side of pairs A and B. The sentinels
		// (xA = yB = vi) keep the addition indexes of an absent pair inside
		// [0, width) while its cA/cB multiplier and mask gate zero it out.
		xA, cA, gateA, ovA := vi, 0, uint64(0), 0
		if a := i - d; a >= 0 {
			xA, cA, gateA = cfg[a], 1, ^uint64(0)
			ovA = vi - xA + off
		}
		yB, cB, gateB, ovB := vi, 0, uint64(0), 0
		if b := i + d; b < n {
			yB, cB, gateB = cfg[b], 1, ^uint64(0)
			ovB = yB - vi + off
		}
		// maskK/remK: touched-value bits and EXACT merged delta of the
		// constant removals. When A and B currently hold the same
		// difference (count necessarily ≥ 2), removing both occurrences
		// loses two errors iff count ≥ 3 and one otherwise — the one
		// same-row collision that is row-constant, handled here so it
		// costs nothing per candidate.
		var maskK uint64
		remK := 0
		if cA == 1 {
			maskK = 1 << uint(ovA&63)
			remK = -b2i(row[ovA] >= 2)
		}
		if cB == 1 {
			if cA == 1 && ovA == ovB {
				remK = -1 - b2i(row[ovB] >= 3)
			} else {
				maskK |= 1 << uint(ovB&63)
				remK -= b2i(row[ovB] >= 2)
			}
		}

		rc.row, rc.d, rc.wd = row, d, m.w[d]
		rc.xA, rc.yB = xA, yB
		rc.cA, rc.cB, rc.gateA, rc.gateB = cA, cB, gateA, gateB
		rc.maskK, rc.remK, rc.bitsK = maskK, remK, bits.OnesCount64(maskK)

		// Three candidate regions with pair C/D presence constant per
		// region: pair C exists for j ≥ d, pair D for j < n−d. For
		// Chang-depth rows d ≤ n−d and the middle region has both pairs;
		// FullTriangle rows can have d > n−d, where the middle region has
		// neither. A region that starts past its end sweeps nothing.
		b1, b2 := d, n-d
		midC, midD := true, true
		if b1 > b2 {
			b1, b2 = b2, b1
			midC, midD = false, false
		}
		rc.runSplit(from, b1, false, true)
		rc.runSplit(max(from, b1), b2, midC, midD)
		rc.runSplit(max(from, b2), n, true, false)

		// Special candidates of row d: the pair (i, j) itself reverses
		// sign (old v, new −v) instead of splitting into i-side and
		// j-side changes.
		if j := i - d; j >= from {
			rc.special(j, cfg[j]-vi+off, true)
		}
		if j := i + d; j >= from && j < n {
			rc.special(j, vi-cfg[j]+off, false)
		}
	}
	// out[i−from] is untouched (i is split out of every run), so the
	// identity swap lands on 0 without a special case.
}

// scanRowConst carries one row's constants through the gather sweep.
type scanRowConst struct {
	m      *Model
	row    []int32
	cfg    []int
	acc    []int
	lo     int // first candidate; acc[j−lo] accumulates candidate j
	i      int
	d, off int
	wd     int
	vi     int
	xA, yB int
	cA, cB int
	gateA  uint64
	gateB  uint64
	maskK  uint64
	remK   int
	bitsK  int
}

// runSplit sweeps candidates [a, b) with the row's special positions
// i−d, i, i+d excluded (they are handled out of line; i contributes
// nothing).
func (rc *scanRowConst) runSplit(a, b int, hasC, hasD bool) {
	for _, e := range [3]int{rc.i - rc.d, rc.i, rc.i + rc.d} {
		if e >= b {
			break
		}
		if e < a {
			continue
		}
		rc.runGather(a, e, hasC, hasD)
		a = e + 1
	}
	rc.runGather(a, b, hasC, hasD)
}

// runGather is the counter-gather inner sweep over candidates [a, b), with
// pair C/D presence constant over the run. Per candidate: ≤ 6 counter
// loads, the optimistic contribution, and the popcount collision check;
// colliding candidates branch into the exact per-value merge for this row
// only and keep their optimistic accumulation everywhere else.
func (rc *scanRowConst) runGather(a, b int, hasC, hasD bool) {
	row, cfg, acc := rc.row, rc.cfg, rc.acc
	vi, xA, yB, off, d, lo := rc.vi, rc.xA, rc.yB, rc.off, rc.d, rc.lo
	cA, cB := rc.cA, rc.cB
	wd, remK, maskK := rc.wd, rc.remK, rc.maskK
	gateA, gateB := rc.gateA, rc.gateB
	// Absent C/D pairs read cfg[j] (u = t = vj) so every index stays in
	// range; their gates zero the mask bits and cC/cD the contribution.
	cOff, cC, gateC := 0, 0, uint64(0)
	if hasC {
		cOff, cC, gateC = d, 1, ^uint64(0)
	}
	tOff, cD, gateD := 0, 0, uint64(0)
	if hasD {
		tOff, cD, gateD = d, 1, ^uint64(0)
	}
	expected := rc.bitsK + cA + cB + 2*cC + 2*cD
	for j := a; j < b; j++ {
		vj := cfg[j]
		u := cfg[j-cOff]
		t := cfg[j+tOff]
		nvA := vj - xA + off
		nvB := yB - vj + off
		ovC := vj - u + off
		nvC := vi - u + off
		ovD := t - vj + off
		nvD := t - vi + off
		mask := maskK |
			1<<uint(nvA&63)&gateA |
			1<<uint(nvB&63)&gateB |
			(1<<uint(ovC&63)|1<<uint(nvC&63))&gateC |
			(1<<uint(ovD&63)|1<<uint(nvD&63))&gateD
		if bits.OnesCount64(mask) != expected {
			acc[j-lo] += wd * rc.m.exactRowDelta(d, rc.i, j)
			continue
		}
		contrib := remK +
			cA*b2i(row[nvA] >= 1) +
			cB*b2i(row[nvB] >= 1) +
			cC*(b2i(row[nvC] >= 1)-b2i(row[ovC] >= 2)) +
			cD*(b2i(row[nvD] >= 1)-b2i(row[ovD] >= 2))
		acc[j-lo] += wd * contrib
	}
}

// special accumulates row d's contribution for the candidate j at distance
// exactly d from i (j = i−d when low, else j = i+d): the pair (i, j) is a
// pair OF this row, so its difference reverses sign (nvRev) and the j-side
// pair that would coincide with it is skipped. Collisions are detected with
// the same mask discipline and resolved by the same exact per-value merge.
func (rc *scanRowConst) special(j, nvRev int, low bool) {
	row, cfg := rc.row, rc.cfg
	vi, off, d := rc.vi, rc.off, rc.d
	vj := cfg[j]
	contrib := rc.remK + b2i(row[nvRev] >= 1)
	mask := rc.maskK | 1<<uint(nvRev&63)
	expected := rc.bitsK + 1
	if low {
		// j = i−d: reversed pair is A = (j, i); B is generic; pair C =
		// (j−d, j) when present; D = (j, j+d) is pair A again, skipped.
		if rc.cB == 1 {
			nvB := rc.yB - vj + off
			contrib += b2i(row[nvB] >= 1)
			mask |= 1 << uint(nvB&63)
			expected++
		}
		if a := j - d; a >= 0 {
			u := cfg[a]
			ovC, nvC := vj-u+off, vi-u+off
			contrib += b2i(row[nvC] >= 1) - b2i(row[ovC] >= 2)
			mask |= 1<<uint(ovC&63) | 1<<uint(nvC&63)
			expected += 2
		}
	} else {
		// j = i+d: reversed pair is B = (i, j); A is generic; pair D =
		// (j, j+d) when present; C = (j−d, j) is pair B again, skipped.
		if rc.cA == 1 {
			nvA := vj - rc.xA + off
			contrib += b2i(row[nvA] >= 1)
			mask |= 1 << uint(nvA&63)
			expected++
		}
		if b := j + d; b < len(cfg) {
			t := cfg[b]
			ovD, nvD := t-vj+off, t-vi+off
			contrib += b2i(row[nvD] >= 1) - b2i(row[ovD] >= 2)
			mask |= 1<<uint(ovD&63) | 1<<uint(nvD&63)
			expected += 2
		}
	}
	if bits.OnesCount64(mask) != expected {
		contrib = rc.m.exactRowDelta(d, rc.i, j)
	}
	rc.acc[j-rc.lo] += rc.wd * contrib
}

// exactRowDelta is both sweeps' collision path: row d's exact unweighted
// cost delta for the swap (i, j), its changed pairs rebuilt from the
// configuration and merged per value by slowRowDelta — SwapDelta's own
// collision path. j = i yields 0 (every pair keeps its value).
func (m *Model) exactRowDelta(d, i, j int) int {
	if j < i {
		i, j = j, i
	}
	cfg, n, off := m.cfg, m.n, m.n-1
	vi, vj := cfg[i], cfg[j]
	var po, pn [4]int
	np := 0
	if a := i - d; a >= 0 {
		po[np], pn[np] = vi-cfg[a]+off, vj-cfg[a]+off
		np++
	}
	if b := i + d; b < n {
		po[np], pn[np] = cfg[b]-vi+off, cfg[b]-vj+off
		if b == j {
			pn[np] = vi - vj + off // the (i, j) pair itself reverses sign
		}
		np++
	}
	if a := j - d; a >= 0 && a != i {
		po[np], pn[np] = vj-cfg[a]+off, vi-cfg[a]+off
		np++
	}
	if b := j + d; b < n {
		po[np], pn[np] = cfg[b]-vj+off, cfg[b]-vi+off
		np++
	}
	return slowRowDelta(m.cnt[m.rowBase[d]:], &po, &pn, np)
}
