// Package csp defines the contract between permutation-CSP models and the
// local-search engines in this repository.
//
// The Adaptive Search method (§III of the paper) takes as input a problem in
// CSP form — variables, domains, constraints — where each constraint carries
// an *error function* measuring how much it is violated, and those errors
// are projected onto the variables appearing in the constraint. For
// permutation problems (the Costas Array Problem, N-Queens, All-Interval,
// Magic Square...) the configuration is a permutation of {0..n-1} and the
// elementary move is a swap of two positions. This package fixes that
// interface once, so every engine (adaptive search, tabu, dialectic,
// hill-climbing) can drive every model.
//
// The interface deliberately mirrors the C Adaptive Search library the paper
// builds on (Cost_Of_Solution / Cost_On_Variable / Cost_If_Swap /
// Executed_Swap / Reset): models may answer incrementally using internal
// state that the engine keeps in sync through the Bind/ExecSwap protocol.
package csp

import "repro/internal/rng"

// Model is a permutation CSP in Adaptive Search form.
//
// The engine owns the configuration slice (a permutation of {0..n-1}) and
// informs the model of every change, so models can maintain incremental
// structures (the Costas model keeps its difference-triangle counters this
// way). The protocol is:
//
//	Bind(cfg)           — full (re)build of internal state from cfg;
//	CostIfSwap(i, j)    — hypothetical global cost after swapping cfg[i], cfg[j];
//	ExecSwap(i, j)      — swap cfg[i], cfg[j] in place and update state;
//
// Bind is called after initialisation, restarts and resets; ExecSwap commits
// each move (the model performs the swap itself so its incremental state can
// never drift from the configuration). A model must answer Cost and VarCost
// for the bound configuration at any time.
type Model interface {
	// Size returns n, the number of variables.
	Size() int

	// Bind installs cfg as the current configuration and fully recomputes
	// any incremental state. The model keeps the slice (it is not copied),
	// so the engine must call Bind again if it rewrites cfg wholesale.
	Bind(cfg []int)

	// Cost returns the current global cost; zero means all constraints are
	// satisfied.
	Cost() int

	// VarCost returns the error projected on variable i (the combination of
	// the error functions of all constraints in which variable i appears).
	// Selecting the maximum of these is Adaptive Search's culprit rule.
	VarCost(i int) int

	// CostIfSwap returns the global cost the configuration would have if
	// positions i and j were swapped. It must not mutate visible state.
	CostIfSwap(i, j int) int

	// ExecSwap swaps positions i and j of the bound configuration in place
	// and updates the model's incremental state. Engines observe the change
	// through the shared slice.
	ExecSwap(i, j int)
}

// ScanModel is the fast-probe extension of Model for engines that probe
// many swaps per committed move (the Adaptive Search min-conflict scan
// evaluates n−1 candidates and commits one). It exposes move evaluation as
// a read-only cost *delta*, batches a row of the swap neighborhood (or
// just its suffix from some j on) into one pass over the model's
// incremental state, lets the caller commit the winning swap without
// the model recomputing the delta it just reported, and scores a whole
// configuration without rebinding (dialectic's synthesis path):
//
//	SwapDelta(i, j)        ≡ CostIfSwap(i, j) − Cost(), with NO writes to
//	                         any internal state (read-only probe);
//	ScanSwaps(i, deltas)   ≡ deltas[k] = SwapDelta(i, lo+k) for every k,
//	                         where lo = Size() − len(deltas): deltas is a
//	                         suffix view of the row (full length = the
//	                         whole row, deltas[i] = 0), and only the
//	                         candidates [lo, Size()) are computed. No
//	                         OBSERVABLE state changes: cost, per-variable
//	                         errors and every future probe answer are
//	                         exactly as if the scan never ran. (An
//	                         implementation may settle internal caches —
//	                         e.g. refresh a lazily-maintained acceleration
//	                         structure — but nothing visible through the
//	                         interface.)
//	CommitSwap(i, j, d)    ≡ ExecSwap(i, j), but trusts d == SwapDelta(i, j)
//	                         and skips the delta recomputation.
//	CostOf(cfg)            ≡ the Cost() Bind(cfg) would leave, with no
//	                         observable state change: the model stays
//	                         bound to its configuration, and cost,
//	                         per-variable errors and every probe answer
//	                         are as before.
//
// The identities are exact, element for element — the conformance, parity
// and fuzz suites pin them — so implementing ScanModel can never change a
// trajectory, only its cost. CommitSwap's delta argument MUST be the value
// SwapDelta (or CostIfSwap − Cost) returned for the same (i, j) against the
// current configuration; passing anything else silently corrupts the
// incremental cost. Engines do not type-assert for this interface
// themselves: they probe through Probe, which resolves the tier once and
// falls back to CostIfSwap/ExecSwap (and Bind + Cost for CostOf) for plain
// Models.
type ScanModel interface {
	Model

	// SwapDelta returns the global-cost change that swapping positions i
	// and j would cause. It must not write to any internal state — not
	// even transiently (no mutate-and-rollback).
	SwapDelta(i, j int) int

	// CommitSwap swaps positions i and j of the bound configuration and
	// updates incremental state, trusting delta (the caller's just-computed
	// SwapDelta(i, j)) for the new global cost.
	CommitSwap(i, j, delta int)

	// ScanSwaps computes, in one pass, the global-cost change that
	// swapping position i with each position j ≥ lo would cause, where
	// lo = Size() − len(deltas), writing SwapDelta(i, lo+k) into
	// deltas[k]. A full-length deltas is the whole row (deltas[i] = 0);
	// a shorter one is its suffix view, and the candidates below lo are
	// not computed. It must not change any observable state (internal
	// caches may be refreshed). It panics if len(deltas) > Size().
	ScanSwaps(i int, deltas []int)

	// CostOf returns the global cost cfg would have if it were bound,
	// without binding it: no observable state changes. cfg must be a
	// permutation of length Size(); the model does not keep it.
	CostOf(cfg []int) int
}

// Resetter is implemented by models providing a dedicated escape procedure
// from local minima, replacing the engine's generic percentage reset — the
// paper's custom CAP reset (§IV-B2) is the canonical example. Reset may
// mutate cfg (the bound configuration) in place; it returns the resulting
// global cost and must leave its incremental state consistent with cfg.
type Resetter interface {
	Reset(cfg []int, r *rng.RNG) int
}

// IsPermutation reports whether cfg is a permutation of {0..len(cfg)-1};
// every engine in the repository maintains this as an invariant and the
// tests check it relentlessly.
func IsPermutation(cfg []int) bool {
	seen := make([]bool, len(cfg))
	for _, v := range cfg {
		if v < 0 || v >= len(cfg) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// RandomConfiguration allocates and returns a fresh uniformly random
// permutation of size n.
func RandomConfiguration(n int, r *rng.RNG) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// Clone returns a copy of cfg.
func Clone(cfg []int) []int {
	out := make([]int, len(cfg))
	copy(out, cfg)
	return out
}
