package costas

// The batched neighborhood-scan kernel: one pass over the flattened
// difference triangle computes the cost delta of swapping position i with
// EVERY other position. This is the data-level-parallel counterpart of the
// per-probe SwapDelta — the Adaptive Search inner loop evaluates the whole
// neighborhood of the worst variable before committing one move, so probing
// candidates one at a time re-derives the same per-row state (the two pairs
// that contain position i, their current difference values, their counter
// thresholds) n−1 times per pass. ScanSwaps hoists all of that to row scope
// and sweeps the candidates in branch-light inner loops over the int32
// counter lanes.
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
// A and B do not depend on j except through vj: their removal side (old
// value, counter threshold) is ROW-CONSTANT and is computed once per row,
// merged exactly when A and B currently hold the same difference. Two
// sweep implementations share that row-scope hoisting:
//
// SWAR sweep (n ≤ 32, i.e. a triangle row fits one uint64). Per row the
// cost is Σ_v max(0, count(v)−1) = #pairs − #distinct values, and #pairs
// is swap-invariant, so the row's delta is exactly (#values that vanish) −
// (#values that appear). Vanish/appear are computed with word-parallel bit
// algebra against the model's bit-plane cache (count ≥ 1/2/3 presence
// words per row; Bind invalidates all rows at O(1), the sweep rebuilds a
// stale row on first touch, CommitSwap flips the bit each counter step
// changes in valid rows only — see model.go): the four changed pairs
// contribute one removal word held as a 2-entry carry-save counter
// (Rlo/Rhi, seeded with the row-constant A/B removals) and one addition
// mask A. `appear = A &^ B1` is exact regardless of how many pairs add the
// same value, and `vanish = (Rlo&c1 | Rhi&c2) &^ A` is exact for removal
// multiplicities up to two (c1/c2 = the count==1/count==2 planes); the
// ~0.1 % of candidates where THREE pairs remove one value overflow the
// carry-save counter, are detected exactly, and route that (row,
// candidate) through slowRowDelta. The inner loop is then shift/or/
// popcount straight line: region-split so the C/D existence tests are
// hard-wired (j < min(d, n−d): only D; the middle: both or neither;
// j ≥ max(d, n−d): only C), with absent A/B pairs encoded as shift-count
// sentinels that overflow Go's shift semantics to a zero bit instead of
// costing a mask register.
//
// Gather sweep (n ≥ 33). The additions and the C/D pairs are per-candidate
// counter loads and comparisons, accumulated optimistically (a removal
// loses an error iff its count ≥ 2, an addition gains one iff its count
// ≥ 1), which is exact while all touched values are distinct. A uint64
// bitmask over the touched value indexes detects collisions the same way
// the per-probe kernel does — popcount(mask) falling short of the
// operation count routes the candidate's ROW through slowRowDelta (the
// per-probe kernel's exact per-value merge) right there in the sweep,
// while the row constants are still live; the other rows of the candidate
// keep their optimistic accumulation. The v&63 bit folding can flag
// spurious collisions — never miss real ones — which only costs the merge
// for that (row, candidate).
//
// The candidates j = i−d and j = i+d are special in row d ONLY (the pair
// (i, j) is itself a pair of the row and reverses sign instead of splitting
// into separate i-side and j-side changes); each row handles its two
// special candidates out of line. The gather sweep skips them; the SWAR
// sweep lets its branch-free loops run over them, with their two
// accumulator slots saved before the sweep and restored after it, which
// keeps the hot loops free of per-iteration index compares. j = i needs no
// exclusion at all: every changed pair rejoins the value it left, so the
// generic formula contributes exactly zero.
//
// Blocking. The candidate range [from, n) — the whole row, or the suffix
// a shorter deltas view asks for (from = n − len(deltas)) — is chunked into
// ScanBlock-sized blocks (Options.ScanBlock; DefaultScanBlock was picked by
// the perfbench block sweep): per block the triangle is walked once,
// accumulating into an int32 delta slab that stays resident in L1. Small
// orders fit in one block; at large n blocking trades an extra triangle
// walk per block for a slab that never leaves L1 — the same
// memory-for-speed knob as the kbs/bs block sizes in the related work's
// chunked pipelines. Every per-candidate step works on a [lo, hi) block,
// so a suffix view costs only its own candidates: tabu search and
// dialectic descent, which read the j > i half of each row, pay for half
// the neighborhood.

import (
	"fmt"
	"math/bits"
)

// DefaultScanBlock is the candidate-chunk size of the batched neighborhood
// scan when Options.ScanBlock is 0. Picked by the kernel/scan_swaps block
// sweep in cmd/perfbench: up to this many candidates the int32 delta slab
// (4 bytes per candidate) plus a triangle row stay comfortably in L1, and
// the paper's instance range (n ≤ 32, open orders into the low hundreds)
// fits in a single block, so the default adds no chunking overhead there.
const DefaultScanBlock = 256

// ScanSwaps implements csp.ScanModel: deltas is a suffix view of the
// swap-delta row, deltas[k] = SwapDelta(i, from+k) with from = n −
// len(deltas), computed in one blocked pass over the difference triangle
// for the candidates [from, n) only. A full-length slice is the whole row.
// The probe changes nothing observable through the model interface
// (counters, cost, per-variable errors, configuration); it does settle the
// lazily-maintained bit-plane cache, which is an internal accelerator
// structure only. deltas must not be longer than n.
func (m *Model) ScanSwaps(i int, deltas []int) {
	if len(deltas) > m.n {
		panic(fmt.Sprintf("costas: ScanSwaps with deltas of length %d, want at most %d", len(deltas), m.n))
	}
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("costas: ScanSwaps position %d out of range [0,%d)", i, m.n))
	}
	from := m.n - len(deltas)
	for lo := from; lo < m.n; lo += m.scanBlock {
		hi := lo + m.scanBlock
		if hi > m.n {
			hi = m.n
		}
		m.scanBlockInto(i, lo, hi, deltas[lo-from:hi-from])
	}
}

// b2i returns 1 when c is true — the branch-free accumulation primitive of
// the scan sweep (compiles to SETcc, no branch).
func b2i(c bool) int32 {
	if c {
		return 1
	}
	return 0
}

// scanBlockInto resolves the swap partner block [lo, hi) into out
// (out[k] = SwapDelta(i, lo+k)): the optimistic sweep per row with inline
// per-row collision merges, then the per-row special candidates.
func (m *Model) scanBlockInto(i, lo, hi int, out []int) {
	n := m.n
	cfg := m.cfg
	cnt := m.cnt
	vi := cfg[i]
	off := n - 1
	width := 2*n - 1
	acc := m.scanAcc[:hi-lo]
	for k := range acc {
		acc[k] = 0
	}

	// One row-constant block reused across rows (a fresh composite literal
	// per row costs a measurable struct copy in this loop).
	var rc scanRowConst
	rc.cfg, rc.acc = cfg, acc
	rc.lo, rc.off, rc.vi, rc.i = lo, off, vi, i

	base := 0
	for d := 1; d <= m.depth; d, base = d+1, base+width {
		row := cnt[base : base+width]
		wd := int32(m.w[d])

		// Row constants: the removal side of pairs A and B. The sentinels
		// (xA = yB = vi) keep the addition indexes of an absent pair inside
		// [0, width) while its cA/cB multiplier and mask gate zero it out.
		xA, cA, gateA, ovA := vi, int32(0), uint64(0), 0
		if a := i - d; a >= 0 {
			xA, cA, gateA = cfg[a], 1, ^uint64(0)
			ovA = vi - xA + off
		}
		yB, cB, gateB, ovB := vi, int32(0), uint64(0), 0
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
		remK := int32(0)
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
		bitsK := bits.OnesCount64(maskK)

		// The sweep runs over three candidate regions with pair C/D
		// presence constant per region: pair C exists for j ≥ d, pair D
		// for j < n−d. For Chang-depth rows d ≤ n−d and the middle region
		// has both pairs; FullTriangle rows can have d > n−d, where the
		// middle region has neither. The row's special candidates i−d, i,
		// i+d are split out of every run.
		rc.row, rc.d, rc.wd = row, d, wd
		rc.xA, rc.yB, rc.ovA, rc.ovB = xA, yB, ovA, ovB
		rc.cA, rc.cB, rc.gateA, rc.gateB = cA, cB, gateA, gateB
		rc.maskK, rc.remK, rc.bitsK = maskK, remK, bitsK

		// Row dispatch: every row of a width ≤ 64 model sweeps by bit
		// planes; the counter-gather path remains for wider models. The
		// row-constant removal pair seeds the 2-bit carry-save counter,
		// which makes the merged ovA == ovB case (both bits collapse into
		// the multiplicity-2 word) exact for free.
		if m.planes != nil {
			if m.planeGen[d] != m.planeEpoch {
				m.planeRebuildRow(d)
			}
			po := 3 * (d - 1)
			pb1, pb2, pb3 := m.planes[po], m.planes[po+1], m.planes[po+2]
			rc.c1 = pb1 &^ pb2
			rc.c2 = pb2 &^ pb3
			rc.nB1 = ^pb1
			bA := 1 << uint(ovA&63) & gateA
			bB := 1 << uint(ovB&63) & gateB
			rc.rKlo = bA ^ bB
			rc.rKhi = bA & bB
			// Addition-shift bases: an absent pair's base is pushed so far
			// out that the (unmasked) shift count leaves [0, 64) and the
			// bit vanishes by Go's shift semantics — no gate registers in
			// the sweep.
			rc.xA2 = xA - off
			if cA == 0 {
				rc.xA2 = 1 << 30
			}
			rc.yB2 = yB + off
			if cB == 0 {
				rc.yB2 = -(1 << 30)
			}
			// One run covers the whole block: the three C/D-presence
			// regions are inline sub-loops, and the special candidates'
			// slots are restored after it, so there is nothing left to
			// split around.
			low, high := uint(i-d-lo), uint(i+d-lo)
			var keepLow, keepHigh int32
			if low < uint(len(acc)) {
				keepLow = acc[low]
			}
			if high < uint(len(acc)) {
				keepHigh = acc[high]
			}
			rc.runSwar(lo, hi)
			if low < uint(len(acc)) {
				acc[low] = keepLow
			}
			if high < uint(len(acc)) {
				acc[high] = keepHigh
			}
		} else {
			b1, b2 := d, n-d
			midC, midD := true, true
			if b1 > b2 {
				b1, b2 = b2, b1
				midC, midD = false, false
			}
			rc.runSplit(i, clamp(lo, 0, b1), clamp(hi, 0, b1), false, true)
			rc.runSplit(i, clamp(lo, b1, b2), clamp(hi, b1, b2), midC, midD)
			rc.runSplit(i, clamp(lo, b2, n), clamp(hi, b2, n), true, false)
		}

		// Special candidates of row d: the pair (i, j) itself reverses
		// sign (old v, new −v) instead of splitting into i-side and
		// j-side changes.
		if j := i - d; j >= lo && j < hi {
			rc.special(j, cfg[j]-vi+off, true)
		}
		if j := i + d; j >= lo && j < hi {
			rc.special(j, vi-cfg[j]+off, false)
		}
	}

	// acc[i−lo] is untouched (i is split out of every run), so the
	// identity swap lands on 0 without a special case.
	for k := range acc {
		out[k] = int(acc[k])
	}
}

// clamp returns v limited to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// scanRowConst carries one row's constants through the sweep loops.
type scanRowConst struct {
	row      []int32
	cfg      []int
	acc      []int32
	lo       int
	d, off   int
	wd       int32
	vi       int
	xA, yB   int
	ovA, ovB int
	cA, cB   int32
	gateA    uint64
	gateB    uint64
	maskK    uint64
	remK     int32
	bitsK    int

	// SWAR-sweep row constants (valid only when the row dispatched to
	// runSwar): c1/c2 = values with count exactly 1/exactly 2, nB1 =
	// values with count 0, rKlo/rKhi = the row-constant removal multiset
	// {ovA, ovB} as a 2-bit carry-save counter (hi = multiplicity 2),
	// xA2/yB2 = addition-shift bases (out-of-range sentinel when the
	// pair is absent).
	c1, c2, nB1 uint64
	rKlo, rKhi  uint64
	xA2, yB2    int
	i           int // the scan position (runSwar's overflow guard)
}

// runSplit sweeps candidates [a, b) with the row's special positions
// i−d, i, i+d excluded (they are handled out of line; i contributes
// nothing).
func (rc *scanRowConst) runSplit(i, a, b int, hasC, hasD bool) {
	for _, e := range [3]int{i - rc.d, i, i + rc.d} {
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

// runSwar is the bit-plane inner sweep over candidates [a, b) — the
// width ≤ 64 fast path. Per candidate it builds two value SETS in
// registers: R, the differences removed in this row (the row-constant
// {ovA, ovB} plus the C/D old values), and A, the differences added (the
// four new values). Because the row's pair count is fixed, its cost
// rewrites to
//
//	Σ_v max(0, count_v−1) = (#pairs of the row) − (#distinct values),
//
// so the exact row delta is #vanished − #appeared, and both sets fall out
// of register algebra against the count planes:
//
//	vanished = R \ A restricted to count exactly 1 (c1) or, for
//	           multiplicity-2 removals, count exactly 2 (c2)
//	appeared = A with count 0 (nB1)
//
// Multiplicity discipline, the part that makes this exact rather than
// optimistic:
//
//   - Addition multiplicity NEVER matters. A value appears iff its count is
//     0 and some pair joins it — and a count-0 value cannot be removed (the
//     changed pairs only remove differences currently present) — so
//     appeared = A &^ B1 exactly, however many pairs join the value, and a
//     value both removed and re-joined (R ∩ A, the gather path's COMMON
//     collision case) can neither vanish nor appear: its count stays ≥ 1.
//   - Removal multiplicity matters up to 2: a value removed once vanishes
//     iff count == 1 (c1), removed twice iff count == 2 (c2), in both cases
//     only when no pair re-joins it. R is therefore a 2-bit carry-save
//     counter (lo/hi), seeded with the row-constant pair {ovA, ovB} — which
//     absorbs the merged ovA == ovB case — and fed the C/D old values.
//     Multiplicity 3 (two simultaneous coincidences, vanishingly rare)
//     overflows the counter and routes the candidate's row to the exact
//     per-value merge.
//
// The block is swept as three inline region sub-loops with pair C/D
// presence hard-wired per region (C exists iff j ≥ d, D iff j + d < n; a
// FullTriangle row with d > n−d has NEITHER in its middle region), so the
// hot loops carry no presence masks and no per-region call prologues. The
// special candidates i ± d are NOT excluded: their (meaningless) generic
// contribution is computed like any other candidate's and discarded when
// scanBlockInto restores their slots; j = i contributes exactly zero by
// construction (every pair rejoins the value it left), so only the rare
// overflow branch guards against it. No counter gathers at all: the three
// cfg loads are the only memory reads per candidate.
func (rc *scanRowConst) runSwar(a, b int) {
	cfg, acc := rc.cfg, rc.acc
	vi, off, d, lo := rc.vi, rc.off, rc.d, rc.lo
	wd, c1, c2, nB1 := rc.wd, rc.c1, rc.c2, rc.nB1
	rKlo, rKhi := rc.rKlo, rc.rKhi
	xA2, yB2 := rc.xA2, rc.yB2
	n := len(cfg)
	vioff := vi + off
	i := rc.i

	b1, b2 := d, n-d
	both := true
	if b1 > b2 {
		b1, b2 = b2, b1
		both = false
	}

	// Region 1: j < min(d, n−d) — pair C absent, pair D present.
	e := b
	if e > b1 {
		e = b1
	}
	for j := a; j < e; j++ {
		vj := cfg[j]
		t := cfg[j+d]
		toff := t + off
		bD := uint64(1) << uint((toff-vj)&63)
		ovf := rKhi & bD
		carry := rKlo & bD
		Rlo := rKlo ^ bD
		Rhi := rKhi | carry
		if ovf != 0 {
			if j != i {
				acc[j-lo] += rc.fixVal(j, vj, vj, t, false, true)
			}
			continue
		}
		A := uint64(1)<<uint(vj-xA2) |
			uint64(1)<<uint(yB2-vj) |
			uint64(1)<<uint((toff-vi)&63)
		van := (Rlo&c1 | Rhi&c2) &^ A
		acc[j-lo] += wd * int32(bits.OnesCount64(van)-bits.OnesCount64(A&nB1))
	}

	// Region 2: min(d, n−d) ≤ j < max(d, n−d) — both pairs for Chang-depth
	// rows (d ≤ n−d), neither for the deep FullTriangle rows.
	a2 := a
	if a2 < b1 {
		a2 = b1
	}
	e = b
	if e > b2 {
		e = b2
	}
	if both {
		for j := a2; j < e; j++ {
			vj := cfg[j]
			u := cfg[j-d]
			t := cfg[j+d]
			vjoff := vj + off
			toff := t + off
			bC := uint64(1) << uint((vjoff-u)&63)
			bD := uint64(1) << uint((toff-vj)&63)
			ovf := rKhi & bC
			carry := rKlo & bC
			Rlo := rKlo ^ bC
			Rhi := rKhi | carry
			ovf |= Rhi & bD
			carry = Rlo & bD
			Rlo ^= bD
			Rhi |= carry
			if ovf != 0 {
				if j != i {
					acc[j-lo] += rc.fixVal(j, vj, u, t, true, true)
				}
				continue
			}
			A := uint64(1)<<uint(vj-xA2) |
				uint64(1)<<uint(yB2-vj) |
				uint64(1)<<uint((vioff-u)&63) |
				uint64(1)<<uint((toff-vi)&63)
			van := (Rlo&c1 | Rhi&c2) &^ A
			acc[j-lo] += wd * int32(bits.OnesCount64(van)-bits.OnesCount64(A&nB1))
		}
	} else {
		// Neither pair: R is the row constant itself, so overflow is
		// impossible and the loop is branch-free.
		vanK := rKlo&c1 | rKhi&c2
		for j := a2; j < e; j++ {
			vj := cfg[j]
			A := uint64(1)<<uint(vj-xA2) | uint64(1)<<uint(yB2-vj)
			van := vanK &^ A
			acc[j-lo] += wd * int32(bits.OnesCount64(van)-bits.OnesCount64(A&nB1))
		}
	}

	// Region 3: j ≥ max(d, n−d) — pair C present, pair D absent.
	a2 = a
	if a2 < b2 {
		a2 = b2
	}
	for j := a2; j < b; j++ {
		vj := cfg[j]
		u := cfg[j-d]
		vjoff := vj + off
		bC := uint64(1) << uint((vjoff-u)&63)
		ovf := rKhi & bC
		carry := rKlo & bC
		Rlo := rKlo ^ bC
		Rhi := rKhi | carry
		if ovf != 0 {
			if j != i {
				acc[j-lo] += rc.fixVal(j, vj, u, vj, true, false)
			}
			continue
		}
		A := uint64(1)<<uint(vj-xA2) |
			uint64(1)<<uint(yB2-vj) |
			uint64(1)<<uint((vioff-u)&63)
		van := (Rlo&c1 | Rhi&c2) &^ A
		acc[j-lo] += wd * int32(bits.OnesCount64(van)-bits.OnesCount64(A&nB1))
	}
}

// runGather is the counter-gather inner sweep over candidates [a, b), with
// pair C/D presence constant over the run — the fallback path for width >
// 64 models, which cannot pack a row into one plane word. Per candidate:
// ≤ 6 counter loads, the optimistic contribution, and the popcount
// collision check; colliding candidates branch into the exact per-value
// merge for this row only and keep their optimistic accumulation everywhere
// else.
func (rc *scanRowConst) runGather(a, b int, hasC, hasD bool) {
	row, cfg, acc := rc.row, rc.cfg, rc.acc
	vi, xA, yB, off, d, lo := rc.vi, rc.xA, rc.yB, rc.off, rc.d, rc.lo
	cA, cB := rc.cA, rc.cB
	wd, remK, maskK := rc.wd, rc.remK, rc.maskK
	gateA, gateB := rc.gateA, rc.gateB
	// Absent C/D pairs read cfg[j] (u = t = vj) so every index stays in
	// range; their gates zero the mask bits and cC/cD the contribution.
	cOff, cC, gateC := 0, int32(0), uint64(0)
	if hasC {
		cOff, cC, gateC = d, 1, ^uint64(0)
	}
	tOff, cD, gateD := 0, int32(0), uint64(0)
	if hasD {
		tOff, cD, gateD = d, 1, ^uint64(0)
	}
	expected := rc.bitsK + int(cA) + int(cB) + 2*int(cC) + 2*int(cD)
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
			acc[j-lo] += rc.fixVal(j, vj, u, t, hasC, hasD)
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

// fixVal resolves one (row, candidate) collision: the candidate's changed
// pairs of this row are rebuilt from the already-loaded cfg values (vj, u,
// t) and merged per value by slowRowDelta — the per-probe kernel's exact
// collision path — returning the weighted exact row delta that replaces
// the optimistic one this row would have accumulated.
func (rc *scanRowConst) fixVal(j, vj, u, t int, hasC, hasD bool) int32 {
	off, vi := rc.off, rc.vi
	var po, pn [4]int
	np := 0
	if rc.cA == 1 {
		po[np], pn[np] = rc.ovA, vj-rc.xA+off
		np++
	}
	if rc.cB == 1 {
		po[np], pn[np] = rc.ovB, rc.yB-vj+off
		np++
	}
	if hasC {
		po[np], pn[np] = vj-u+off, vi-u+off
		np++
	}
	if hasD {
		po[np], pn[np] = t-vj+off, t-vi+off
		np++
	}
	return rc.wd * int32(slowRowDelta(rc.row, &po, &pn, np))
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
	var po, pn [4]int
	np := 0
	contrib := rc.remK + b2i(row[nvRev] >= 1)
	mask := rc.maskK | 1<<uint(nvRev&63)
	expected := rc.bitsK + 1
	if low {
		// j = i−d: reversed pair is A = (j, i); B is generic; pair C =
		// (j−d, j) when present; D = (j, j+d) is pair A again, skipped.
		po[np], pn[np] = rc.ovA, nvRev
		np++
		if rc.cB == 1 {
			nvB := rc.yB - vj + off
			contrib += b2i(row[nvB] >= 1)
			mask |= 1 << uint(nvB&63)
			expected++
			po[np], pn[np] = rc.ovB, nvB
			np++
		}
		if a := j - d; a >= 0 {
			u := cfg[a]
			ovC, nvC := vj-u+off, vi-u+off
			contrib += b2i(row[nvC] >= 1) - b2i(row[ovC] >= 2)
			mask |= 1<<uint(ovC&63) | 1<<uint(nvC&63)
			expected += 2
			po[np], pn[np] = ovC, nvC
			np++
		}
	} else {
		// j = i+d: reversed pair is B = (i, j); A is generic; pair D =
		// (j, j+d) when present; C = (j−d, j) is pair B again, skipped.
		po[np], pn[np] = rc.ovB, nvRev
		np++
		if rc.cA == 1 {
			nvA := vj - rc.xA + off
			contrib += b2i(row[nvA] >= 1)
			mask |= 1 << uint(nvA&63)
			expected++
			po[np], pn[np] = rc.ovA, nvA
			np++
		}
		if b := j + d; b < len(cfg) {
			t := cfg[b]
			ovD, nvD := t-vj+off, t-vi+off
			contrib += b2i(row[nvD] >= 1) - b2i(row[ovD] >= 2)
			mask |= 1<<uint(ovD&63) | 1<<uint(nvD&63)
			expected += 2
			po[np], pn[np] = ovD, nvD
			np++
		}
	}
	exact := rc.wd * contrib
	if bits.OnesCount64(mask) != expected {
		exact = rc.wd * int32(slowRowDelta(row, &po, &pn, np))
	}
	rc.acc[j-rc.lo] += exact
}
