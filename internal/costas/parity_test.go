package costas

// Engine-trajectory parity: the hot-path rewrite (flattened counters,
// read-only SwapDelta probe, CommitSwap commit) must be *bit-identical* to
// the original mutate-and-rollback implementation — same seeds, same
// iteration-for-iteration cost trajectories, for every engine and both
// error functions. Two layers enforce it:
//
//  1. golden fingerprints: FNV-1a hashes of the (iteration, cost) sequence
//     of fixed-seed walks, captured from the pre-rewrite implementation
//     (commit 0253ce1) and frozen here — any semantic drift in the kernel,
//     the engines' probe loops, or the RNG call sequence changes a
//     fingerprint;
//  2. scan-vs-plain parity: the same engine run twice, once on the *Model
//     (csp.Probe's ScanModel tier) and once on a wrapper that hides
//     SwapDelta/CommitSwap/ScanSwaps (Probe's plain CostIfSwap tier), must
//     agree on every step's cost and counters.

import (
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/csp"
	"repro/internal/dialectic"
	"repro/internal/hillclimb"
	"repro/internal/rng"
	"repro/internal/tabu"
)

// newParityEngine builds the fixed engine configurations the golden table
// was captured with.
func newParityEngine(engine string, m csp.Model, n int, seed uint64) csp.Engine {
	switch engine {
	case "adaptive":
		return adaptive.NewEngine(m, TunedParams(n), seed)
	case "tabu":
		return tabu.New(m, tabu.Params{}, seed)
	case "hillclimb":
		return hillclimb.New(m, hillclimb.Params{}, seed)
	case "dialectic":
		return dialectic.New(m, dialectic.Params{}, seed)
	}
	panic("unknown engine " + engine)
}

// trajectoryFingerprint steps the engine one iteration at a time and hashes
// the (total iterations, cost) pair after every step — the exact procedure
// the golden values were captured with.
func trajectoryFingerprint(e csp.Engine, steps int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for k := 0; k < steps; k++ {
		if e.Step(1) || e.Exhausted() {
			break
		}
		it := e.Stats().Iterations
		c := e.Cost()
		for b := 0; b < 8; b++ {
			buf[b] = byte(it >> (8 * b))
			buf[8+b] = byte(int64(c) >> (8 * b))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestEngineTrajectoryGoldens pins every engine × ErrFunc trajectory to the
// fingerprint recorded on the pre-rewrite implementation. A failure here
// means the rewrite changed solver *behaviour*, not just speed.
func TestEngineTrajectoryGoldens(t *testing.T) {
	cases := []struct {
		engine string
		errf   ErrFunc
		n      int
		steps  int
		want   uint64
	}{
		{"adaptive", ErrUnit, 14, 4000, 0x8101159183707548},
		{"tabu", ErrUnit, 13, 800, 0x4de63e2ee50da43c},
		{"hillclimb", ErrUnit, 14, 8000, 0x3dee2e49a612a6a5},
		{"dialectic", ErrUnit, 11, 40, 0x2807ae77f888090d},
		{"adaptive", ErrQuadratic, 14, 4000, 0xd1045d6b96ab2827},
		{"tabu", ErrQuadratic, 13, 800, 0xf602995b884f56bb},
		{"hillclimb", ErrQuadratic, 14, 8000, 0x2da0f400ea525242},
		{"dialectic", ErrQuadratic, 11, 40, 0x1e320a175960f6ef},
	}
	const seed = 12345
	for _, tc := range cases {
		m := New(tc.n, Options{Err: tc.errf})
		e := newParityEngine(tc.engine, m, tc.n, seed)
		if got := trajectoryFingerprint(e, tc.steps); got != tc.want {
			t.Errorf("%s err=%d n=%d seed=%d: trajectory fingerprint 0x%016x, golden 0x%016x — solver behaviour drifted from the pre-rewrite implementation",
				tc.engine, tc.errf, tc.n, seed, got, tc.want)
		}
	}
}

// plainModel wraps *Model exposing ONLY the csp.Model + csp.Resetter
// surface, so csp.Probe takes its plain CostIfSwap/ExecSwap tier.
type plainModel struct{ m *Model }

func (p plainModel) Size() int                       { return p.m.Size() }
func (p plainModel) Bind(cfg []int)                  { p.m.Bind(cfg) }
func (p plainModel) Cost() int                       { return p.m.Cost() }
func (p plainModel) VarCost(i int) int               { return p.m.VarCost(i) }
func (p plainModel) CostIfSwap(i, j int) int         { return p.m.CostIfSwap(i, j) }
func (p plainModel) ExecSwap(i, j int)               { p.m.ExecSwap(i, j) }
func (p plainModel) Reset(cfg []int, r *rng.RNG) int { return p.m.Reset(cfg, r) }

var _ csp.Model = plainModel{}
var _ csp.Resetter = plainModel{}

// TestScanProbeMatchesPlainProbe runs each engine twice from the same seed
// — once on the native ScanModel, once through a wrapper that forces
// csp.Probe's plain tier — and requires identical trajectories: the same
// cost and the same full csp.Stats block after every step (so a counter
// one tier bumps and the other skips, such as dialectic's restore
// evaluation, fails it), and the same bound configuration and best
// solution at the end.
func TestScanProbeMatchesPlainProbe(t *testing.T) {
	for _, engine := range []string{"adaptive", "tabu", "hillclimb", "dialectic"} {
		for _, errf := range []ErrFunc{ErrUnit, ErrQuadratic} {
			n, steps := 13, 600
			if engine == "dialectic" {
				n, steps = 11, 25
			}
			const seed = 987654321
			fast := New(n, Options{Err: errf})
			slow := New(n, Options{Err: errf})
			if _, ok := csp.Model(fast).(csp.ScanModel); !ok {
				t.Fatal("costas.Model must implement csp.ScanModel")
			}
			if _, ok := csp.Model(plainModel{slow}).(csp.ScanModel); ok {
				t.Fatal("plainModel wrapper must hide the ScanModel methods")
			}
			ef := newParityEngine(engine, fast, n, seed)
			es := newParityEngine(engine, plainModel{slow}, n, seed)
			for k := 0; k < steps; k++ {
				df := ef.Step(1)
				ds := es.Step(1)
				if df != ds || ef.Cost() != es.Cost() || ef.Stats() != es.Stats() {
					t.Fatalf("%s err=%d step %d: scan probe (solved=%v cost=%d stats=%+v) diverged from plain probe (solved=%v cost=%d stats=%+v)",
						engine, errf, k, df, ef.Cost(), ef.Stats(), ds, es.Cost(), es.Stats())
				}
				if df || ef.Exhausted() {
					break
				}
			}
			if !slices.Equal(fast.cfg, slow.cfg) {
				t.Fatalf("%s err=%d: final configurations differ: scan %v, plain %v", engine, errf, fast.cfg, slow.cfg)
			}
			if fs, ss := ef.Solution(), es.Solution(); !slices.Equal(fs, ss) {
				t.Fatalf("%s err=%d: best solutions differ: scan %v, plain %v", engine, errf, fs, ss)
			}
		}
	}
}

// TestScratchCapacityBounded: a long solve with many resets must not grow
// any of the model's scratch slices — the hot path is allocation-free and
// capacity-stable (the old undo log both allocated and retained). At
// n ≤ 32 scanCost counts rows by popcount, so the seen-mark array is not
// carved at all; only wider models carry it.
func TestScratchCapacityBounded(t *testing.T) {
	const n = 12
	m := New(n, Options{})
	wantErrVars, wantCand, wantChain, wantBest, wantSeen :=
		cap(m.errVars), cap(m.cand), cap(m.chain), cap(m.best), cap(m.seenReset)
	if wantErrVars != n {
		t.Fatalf("errVars preallocation: cap %d, want %d", wantErrVars, n)
	}
	if wantSeen != 0 {
		t.Fatalf("seenReset carved at n = %d: cap %d, want 0 (scanCost uses popcount rows)", n, wantSeen)
	}
	for _, wide := range []int{33, 40} {
		if got, want := cap(New(wide, Options{}).seenReset), ChangDepth(wide)*(2*wide-1); got != want {
			t.Fatalf("seenReset at n = %d: cap %d, want %d", wide, got, want)
		}
	}
	var resets int64
	for seed := uint64(1); seed <= 20 && resets < 50; seed++ {
		e := adaptive.NewEngine(m, TunedParams(n), seed)
		for k := 0; k < 25 && !e.Solved(); k++ {
			e.Step(2000)
		}
		resets += e.Stats().Resets
	}
	if resets == 0 {
		t.Fatal("test harness never triggered a reset; scratch growth unexercised")
	}
	if cap(m.errVars) != wantErrVars || cap(m.cand) != wantCand || cap(m.chain) != wantChain ||
		cap(m.best) != wantBest || cap(m.seenReset) != wantSeen {
		t.Fatalf("scratch capacity grew during solve: errVars %d→%d cand %d→%d chain %d→%d best %d→%d seenReset %d→%d",
			wantErrVars, cap(m.errVars), wantCand, cap(m.cand), wantChain, cap(m.chain),
			wantBest, cap(m.best), wantSeen, cap(m.seenReset))
	}
}

// TestSwapDeltaMatchesCostIfSwap: the ScanModel delta identity on random walks.
func TestSwapDeltaMatchesCostIfSwap(t *testing.T) {
	for _, opts := range []Options{{}, {Err: ErrQuadratic}, {FullTriangle: true}} {
		m, _, r := newBound(14, opts, 77)
		for trial := 0; trial < 500; trial++ {
			i, j := r.Intn(14), r.Intn(14)
			if d := m.SwapDelta(i, j); m.Cost()+d != m.CostIfSwap(i, j) {
				t.Fatalf("opts=%+v swap(%d,%d): SwapDelta %d != CostIfSwap−Cost %d",
					opts, i, j, d, m.CostIfSwap(i, j)-m.Cost())
			}
			m.ExecSwap(r.Intn(14), r.Intn(14))
		}
	}
}

// TestCommitSwapMatchesExecSwap: committing with the probed delta is
// indistinguishable from ExecSwap — cost, counters and configuration.
func TestCommitSwapMatchesExecSwap(t *testing.T) {
	mc, cfgC, r := newBound(13, Options{}, 31)
	me := New(13, Options{})
	cfgE := csp.Clone(cfgC)
	me.Bind(cfgE)
	for trial := 0; trial < 400; trial++ {
		i, j := r.Intn(13), r.Intn(13)
		mc.CommitSwap(i, j, mc.SwapDelta(i, j))
		me.ExecSwap(i, j)
		if mc.Cost() != me.Cost() {
			t.Fatalf("trial %d swap(%d,%d): CommitSwap cost %d != ExecSwap cost %d",
				trial, i, j, mc.Cost(), me.Cost())
		}
		for k := range cfgC {
			if cfgC[k] != cfgE[k] {
				t.Fatalf("trial %d: configurations diverged at %d: %v vs %v", trial, k, cfgC, cfgE)
			}
		}
		for k := range mc.cnt {
			if mc.cnt[k] != me.cnt[k] {
				t.Fatalf("trial %d: counter %d diverged: %d vs %d", trial, k, mc.cnt[k], me.cnt[k])
			}
		}
	}
}
