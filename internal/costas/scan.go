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
// share that hoisting:
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
// set: the changed pairs' removals form a 2-entry carry-save counter
// (seeded with the row-constant A/B removals) that picks the values whose
// count drops to zero, and the additions are one OR-ed mask. That is exact
// for removal multiplicities up to two; the ~0.1 % of (row, candidate)
// pairs where THREE pairs remove one value overflow the counter, are
// detected exactly, and take the exact per-value merge. The sweep is
// candidate-major: a prologue puts every row's constants and every
// position's pair bits in two small stack tables, and each candidate then
// runs one loop over the rows with its delta in a register. Absent C/D
// pairs read zero table entries, so the loop has no existence branch; the
// one row where the pair (i, j) itself reverses sign (d = |j − i|) is
// scored after the loop in the same register algebra.
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
	if m.planes != nil {
		m.scanSwar(i, deltas)
	} else {
		clear(deltas)
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

// maxSwarDepth bounds the rows of a SWAR model: n ≤ 32, so at most the
// n−1 = 31 rows of a FullTriangle model.
const maxSwarDepth = 31

// swarRow is one row's constants in scanSwar's stack table.
type swarRow struct {
	p1, c1, c2 uint64 // count ≥ 1, exactly 1, exactly 2; bit = difference mod 64
	rlo, rhi   uint64 // removals of pairs A and B as a 2-bit carry-save counter
	gA, gB     uint64 // addition gates of pairs A and B, 0 for an absent pair
	wd         int    // ERR(d)
}

// swarPos is one position's entry in scanSwar's stack table: the bits a
// candidate j's pair C = (p, j) or D = (j, p) removes and adds when its
// other end p holds x.
type swarPos struct {
	remC, addC uint64 // rotl(1, −x), rotated by vj to the old vj−x; new vi−x
	remD, addD uint64 // rotl(1, x), rotated by −vj to the old x−vj; new x−vi
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
// row's delta is popcount(P1) − popcount(after).
//
// The sweep is candidate-major. A prologue fills two stack tables — each
// position's pair bits and each row's constants — and sums before =
// Σ_d ERR(d)·popcount(P1). Then each candidate j runs one loop over the
// rows with its delta in a register, starting from before and subtracting
// ERR(d)·popcount(after), and stores it once; j = i is 0.
//
// Bits are indexed by difference mod 64 (the plane words rotated right by
// n−1 in the prologue, injective since a row spans 2n−1 ≤ 63 values), so
// every bit a candidate needs is a rotation by vj of a table word: pair
// A's addition is bit vj−x = rotl(gA, vj) with gA = rotl(1, −x), and
// pair C's removal is rotl(remC, vj) the same way. The position table is
// indexed by p&63 and only [0, n) is filled, so a pair C or D that would
// reach outside the array (p < 0 wraps to [33, 64), p ≥ n stays in
// [n, 63)) reads zeros and changes nothing: pair existence costs no
// branch. The carry-save counter is seeded with the row-constant removals
// of A and B, which absorbs A and B holding the same value. A third
// removal of one value overflows it; that (row, candidate) alone — about
// 0.1 % of them — takes the exact per-value merge.
//
// Row d = |j − i| is the candidate's special row, skipped by the loop and
// scored after it: the pair (i, j) belongs to the row, so its removal is
// already in the seed (bA for j = i−d, bB for j = i+d), its addition is
// the reversed difference, and the j-side pair that coincides with it
// (D = (j, i) below i, C = (i, j) above) does not change.
func (m *Model) scanSwar(i int, out []int) {
	n, cfg := m.n, m.cfg
	from := n - len(out)
	vi := cfg[i]
	var pos [64]swarPos
	for p, x := range cfg {
		pos[p&63] = swarPos{
			remC: bits.RotateLeft64(1, -x), addC: 1 << uint((vi-x)&63),
			remD: bits.RotateLeft64(1, x), addD: 1 << uint((x-vi)&63),
		}
	}
	var tab [maxSwarDepth]swarRow
	rows := tab[:m.depth]
	rot := -(n - 1) // planes keep difference v at bit v+n−1
	before := 0
	for k := range rows {
		d := k + 1
		if m.planeGen[d] != m.planeEpoch {
			m.planeRebuildRow(d)
		}
		pl := m.planes[3*k : 3*k+3]
		r := &rows[k]
		r.p1 = bits.RotateLeft64(pl[0], rot)
		r.c1 = bits.RotateLeft64(pl[0]&^pl[1], rot)
		r.c2 = bits.RotateLeft64(pl[1]&^pl[2], rot)
		r.gA, r.gB = pos[(i-d)&63].remC, pos[(i+d)&63].remD
		bA, bB := bits.RotateLeft64(r.gA, vi), bits.RotateLeft64(r.gB, -vi)
		r.rlo, r.rhi = bA^bB, bA&bB
		r.wd = m.w[d]
		before += r.wd * bits.OnesCount64(r.p1)
	}

	for j := from; j < n; j++ {
		if j == i {
			out[j-from] = 0
			continue
		}
		vj := cfg[j]
		sk := j - i - 1 // the special row's index
		if j < i {
			sk = i - j - 1
		}
		acc := before
		var ovf uint64 // rows whose removals overflowed the counter, bit k
		// Counting down compares against 0, which frees the register a
		// length bound would hold (measured ≈ 5 % on the whole sweep).
		for k := len(rows) - 1; k >= 0; k-- {
			if k == sk {
				continue
			}
			r := &rows[k]
			pc, pd := &pos[(j-k-1)&63], &pos[(j+k+1)&63]
			bC := bits.RotateLeft64(pc.remC, vj)
			bD := bits.RotateLeft64(pd.remD, -vj)
			lo, hi := r.rlo^bC, r.rhi|r.rlo&bC
			if r.rhi&bC|hi&bD != 0 {
				ovf |= 1 << uint(k)
				continue
			}
			lo, hi = lo^bD, hi|lo&bD
			A := bits.RotateLeft64(r.gA, vj) | bits.RotateLeft64(r.gB, -vj) | pc.addC | pd.addD
			acc -= r.wd * bits.OnesCount64(r.p1&^(lo&r.c1|hi&r.c2)|A)
		}
		if uint(sk) < uint(len(rows)) {
			r := &rows[sk]
			d := sk + 1
			var A, b uint64 // the row's additions, and its one j-side removal
			if j > i {
				pd := &pos[(j+d)&63]
				A = bits.RotateLeft64(r.gA, vj) | 1<<uint((vi-vj)&63) | pd.addD
				b = bits.RotateLeft64(pd.remD, -vj)
			} else {
				pc := &pos[(j-d)&63]
				A = bits.RotateLeft64(r.gB, -vj) | 1<<uint((vj-vi)&63) | pc.addC
				b = bits.RotateLeft64(pc.remC, vj)
			}
			if r.rhi&b != 0 {
				ovf |= 1 << uint(sk)
			} else {
				lo, hi := r.rlo^b, r.rhi|r.rlo&b
				acc -= r.wd * bits.OnesCount64(r.p1&^(lo&r.c1|hi&r.c2)|A)
			}
		}
		// Overflowed rows take the exact merge, entered as delta −
		// popcount(P1) like every other row of the candidate.
		for ovf != 0 {
			k := bits.TrailingZeros64(ovf)
			ovf &= ovf - 1
			r := &rows[k]
			acc += r.wd * (m.exactRowDelta(k+1, i, j) - bits.OnesCount64(r.p1))
		}
		out[j-from] = acc
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
