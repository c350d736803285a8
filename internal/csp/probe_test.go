package csp_test

import (
	"fmt"
	"testing"

	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/rng"
)

// TestProbeMatchesCostIfSwap pins csp.Probe's answers to the plain Model
// contract on every registered model — the ScanModel tier (costas) and the
// CostIfSwap tier (the rest) alike — for both row shapes the engines use:
// the full row (adaptive, lo = 0) and the upper half (tabu and dialectic,
// lo = i+1). A probe must leave Cost and every VarCost as it found them,
// and Commit with the probed delta must land on the cost it promised.
func TestProbeMatchesCostIfSwap(t *testing.T) {
	for _, cm := range conformanceModels() {
		for _, upper := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/upper=%v", cm.name, upper), func(t *testing.T) {
				m := cm.newModel()
				n := m.Size()
				r := rng.New(11)
				m.Bind(csp.RandomConfiguration(n, r))
				p := csp.NewProbe(m, make([]int, n))
				varCosts := make([]int, n)
				for step := 0; step < 4*n; step++ {
					cost := m.Cost()
					for v := range varCosts {
						varCosts[v] = m.VarCost(v)
					}
					i, lo := r.Intn(n), 0
					if upper {
						lo = i + 1
					}
					row := p.Row(i, lo)
					for j := lo; j < n; j++ {
						if j == i {
							continue
						}
						want := m.CostIfSwap(i, j) - cost
						if row[j] != want {
							t.Fatalf("step %d: Row(%d, %d)[%d] = %d, CostIfSwap − Cost = %d", step, i, lo, j, row[j], want)
						}
						if d := p.Delta(i, j); d != want {
							t.Fatalf("step %d: Delta(%d, %d) = %d, CostIfSwap − Cost = %d", step, i, j, d, want)
						}
					}
					if got := m.Cost(); got != cost {
						t.Fatalf("step %d: probing row %d moved Cost %d → %d", step, i, cost, got)
					}
					for v, want := range varCosts {
						if got := m.VarCost(v); got != want {
							t.Fatalf("step %d: probing row %d moved VarCost(%d) %d → %d", step, i, v, want, got)
						}
					}
					j := r.Intn(n)
					d := p.Delta(i, j)
					p.Commit(i, j, d)
					if got := m.Cost(); got != cost+d {
						t.Fatalf("step %d: Commit(%d, %d, %d) left Cost %d, want %d", step, i, j, d, got, cost+d)
					}
				}
			})
		}
	}
}

// TestProbeCostOf pins csp.Probe's CostOf on every registered model: the
// score is the cost Bind would leave, the ScanModel tier (costas) reports
// no rebind and leaves the model bound to its own configuration, and the
// plain tier reports that it rebound to the scored configuration.
func TestProbeCostOf(t *testing.T) {
	for _, cm := range conformanceModels() {
		m := cm.newModel()
		ref := cm.newModel()
		n := m.Size()
		r := rng.New(5)
		cfg := csp.RandomConfiguration(n, r)
		m.Bind(cfg)
		cost := m.Cost()
		_, scan := m.(csp.ScanModel)
		p := csp.NewProbe(m, nil)
		for trial := 0; trial < 8; trial++ {
			other := csp.RandomConfiguration(n, r)
			got, rebound := p.CostOf(other)
			ref.Bind(csp.Clone(other))
			if got != ref.Cost() {
				t.Fatalf("%s trial %d: CostOf = %d, Bind cost %d", cm.name, trial, got, ref.Cost())
			}
			if rebound == scan {
				t.Fatalf("%s trial %d: rebound = %v on a model with ScanModel = %v", cm.name, trial, rebound, scan)
			}
			if rebound {
				m.Bind(cfg)
			}
			if m.Cost() != cost {
				t.Fatalf("%s trial %d: after CostOf (and any rebind) Cost = %d, want %d", cm.name, trial, m.Cost(), cost)
			}
		}
	}
}

// countingModel hides any fast tier of the wrapped model and counts its
// CostIfSwap calls.
type countingModel struct {
	csp.Model
	calls int
}

func (c *countingModel) CostIfSwap(i, j int) int {
	c.calls++
	return c.Model.CostIfSwap(i, j)
}

// TestProbePlainRowStartsAtLo: the plain tier probes only j ≥ lo, so the
// engines' upper-half scans make (n²−n)/2 CostIfSwap calls, not n²−n.
func TestProbePlainRowStartsAtLo(t *testing.T) {
	for _, cm := range conformanceModels() {
		m := &countingModel{Model: cm.newModel()}
		n := m.Size()
		m.Bind(csp.RandomConfiguration(n, rng.New(3)))
		p := csp.NewProbe(m, make([]int, n))
		for i := 0; i < n-1; i++ {
			p.Row(i, i+1)
		}
		if want := (n*n - n) / 2; m.calls != want {
			t.Errorf("%s: upper-half scan made %d CostIfSwap calls, want %d", cm.name, m.calls, want)
		}
	}
}

// scanCountingModel keeps costas's fast tier and sums the candidates its
// ScanSwaps calls are asked for.
type scanCountingModel struct {
	*costas.Model
	requested int
}

func (c *scanCountingModel) ScanSwaps(i int, deltas []int) {
	c.requested += len(deltas)
	c.Model.ScanSwaps(i, deltas)
}

// TestProbeScanRowStartsAtLo: the ScanModel tier also pays only from lo —
// Row hands ScanSwaps the suffix view, so an upper-half scan requests
// (n²−n)/2 candidates, not n² — while a full row still requests all n.
func TestProbeScanRowStartsAtLo(t *testing.T) {
	for _, n := range []int{2, 13, 33} {
		m := &scanCountingModel{Model: costas.New(n, costas.Options{})}
		m.Bind(csp.RandomConfiguration(n, rng.New(3)))
		p := csp.NewProbe(m, make([]int, n))
		for i := 0; i < n-1; i++ {
			p.Row(i, i+1)
		}
		if want := (n*n - n) / 2; m.requested != want {
			t.Errorf("n=%d: upper-half scan requested %d candidates, want %d", n, m.requested, want)
		}
		m.requested = 0
		p.Row(n/2, 0)
		if m.requested != n {
			t.Errorf("n=%d: full row requested %d candidates, want %d", n, m.requested, n)
		}
	}
}
