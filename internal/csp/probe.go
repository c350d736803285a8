package csp

// Probe is the one swap-probe API every engine drives. It resolves the
// model's tier once, at construction: a ScanModel answers a row of the
// swap neighborhood with one ScanSwaps pass, commits through CommitSwap
// and scores whole configurations through CostOf; any other Model is
// probed with CostIfSwap − Cost, committed through ExecSwap and scored by
// Bind + Cost. Both tiers give identical answers (the ScanModel contract),
// so an engine's trajectory does not depend on which tier its model
// implements — only its cost does.
//
// A Probe is a small value: engines store it by value and hand it the
// scratch they already own, so building one allocates nothing.
type Probe struct {
	m      Model
	sm     ScanModel // non-nil iff m implements the fast tier
	deltas []int     // Row's output; length m.Size()
}

// NewProbe resolves m's probe tier. deltas is the scratch Row writes into
// and returns; it must have length m.Size(), or be nil for an engine that
// never calls Row.
func NewProbe(m Model, deltas []int) Probe {
	sm, _ := m.(ScanModel)
	return Probe{m: m, sm: sm, deltas: deltas}
}

// Row returns the swap deltas of position i: row[j] = CostIfSwap(i, j) −
// Cost() for every j ≥ lo, j ≠ i. Other entries are unspecified. The
// slice is the Probe's scratch, valid until the next Row call. Both tiers
// pay only from lo on — a ScanModel scans the suffix view deltas[lo:], a
// plain model makes one CostIfSwap per entry — so an engine scanning only
// the j > i half of the quadratic neighborhood passes lo = i+1.
func (p *Probe) Row(i, lo int) []int {
	if p.sm != nil {
		p.sm.ScanSwaps(i, p.deltas[lo:])
		return p.deltas
	}
	return p.plainRow(i, lo)
}

// plainRow is Row's CostIfSwap loop, kept out of Row so the ScanModel
// branch stays small enough to inline.
func (p *Probe) plainRow(i, lo int) []int {
	cur := p.m.Cost()
	for j := lo; j < len(p.deltas); j++ {
		if j != i {
			p.deltas[j] = p.m.CostIfSwap(i, j) - cur
		}
	}
	return p.deltas
}

// Delta returns CostIfSwap(i, j) − Cost() for one pair.
func (p *Probe) Delta(i, j int) int {
	if p.sm != nil {
		return p.sm.SwapDelta(i, j)
	}
	return p.m.CostIfSwap(i, j) - p.m.Cost()
}

// CostOf returns the cost cfg would have if it were bound. A ScanModel
// answers without rebinding, so its binding, planes and counters stay as
// they were and rebound is false. A plain model is bound to cfg and its
// Cost read; rebound is true, and the caller must Bind its own
// configuration again before it probes or commits.
func (p *Probe) CostOf(cfg []int) (cost int, rebound bool) {
	if p.sm != nil {
		return p.sm.CostOf(cfg), false
	}
	p.m.Bind(cfg)
	return p.m.Cost(), true
}

// Commit swaps positions i and j. delta must be the value Row or Delta
// just returned for the pair: the fast tier trusts it for the new cost.
func (p *Probe) Commit(i, j, delta int) {
	if p.sm != nil {
		p.sm.CommitSwap(i, j, delta)
		return
	}
	p.m.ExecSwap(i, j)
}
