package main

import (
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/report"
	"repro/internal/stats"
)

// ablationConfig is one model/engine variant of §IV-B's tuning narrative.
type ablationConfig struct {
	name   string
	desc   string
	opts   costas.Options
	params func(n int) adaptive.Params
}

// runAblation measures the model refinements §IV-B claims: the error
// weight function, Chang's bound, and the dedicated reset procedure, plus
// the paper-literal parameter set vs this implementation's tuned set.
func runAblation(sc Scale) {
	banner("Ablations — §IV-B model refinements")
	note("scale=%s: sizes %v, %d runs per cell; metric = mean engine iterations (capped)", sc.Name, sc.AblationSizes, sc.AblationRuns)

	configs := []ablationConfig{
		{
			name:   "tuned",
			desc:   "unit ERR, Chang bound, custom reset, tuned params (library default)",
			opts:   costas.Options{},
			params: costas.TunedParams,
		},
		{
			name:   "quadratic-err",
			desc:   "ERR(d)=n²−d² as §IV-B (paper: ≈17% faster than unit in its implementation)",
			opts:   costas.Options{Err: costas.ErrQuadratic},
			params: costas.TunedParams,
		},
		{
			name:   "full-triangle",
			desc:   "Chang bound disabled: all n−1 rows checked (paper: ≈30% slower)",
			opts:   costas.Options{FullTriangle: true},
			params: costas.TunedParams,
		},
		{
			name:   "generic-reset",
			desc:   "dedicated reset replaced by generic 5% re-randomisation (paper: ≈3.7× slower)",
			opts:   costas.Options{GenericReset: true},
			params: costas.TunedParams,
		},
		{
			name:   "paper-params",
			desc:   "RL=1/RP=5% literal paper tuning (plus restart safety net)",
			opts:   costas.PaperOptions(),
			params: costas.PaperParams,
		},
	}

	const iterCap = 20_000_000
	header := []string{"config"}
	for _, n := range sc.AblationSizes {
		header = append(header, fmt.Sprintf("n=%d iters", n), fmt.Sprintf("n=%d t(s)", n))
	}
	header = append(header, "solved")
	tb := report.NewTable("", header...)

	for _, cfg := range configs {
		row := []string{cfg.name}
		solved, total := 0, 0
		for _, n := range sc.AblationSizes {
			it := stats.NewSample()
			secs := stats.NewSample()
			for r := 0; r < sc.AblationRuns; r++ {
				total++
				p := cfg.params(n)
				p.MaxIterations = iterCap
				// Engines are driven through the generic csp.Engine
				// interface, like every other experiment harness.
				e := adaptive.Factory(p)(costas.New(n, cfg.opts), uint64(n)*7919+uint64(r)*104729+1)
				startIters := e.Stats().Iterations
				start := nowSeconds()
				if e.Solve() {
					solved++
					it.Add(float64(e.Stats().Iterations - startIters))
					secs.Add(nowSeconds() - start)
				}
			}
			if it.N() == 0 {
				row = append(row, "DNF", "-")
			} else {
				row = append(row, report.Count(int64(it.Mean())), report.Secs(secs.Mean()))
			}
		}
		row = append(row, fmt.Sprintf("%d/%d", solved, total))
		tb.AddRow(row...)
		note("%-14s %s", cfg.name+":", cfg.desc)
	}
	fmt.Println()
	fmt.Print(tb.String())
	note("")
	note("documented deviation: in this Go implementation the unit error function")
	note("outperforms the paper's quadratic weighting; the Chang-bound and custom-")
	note("reset directions match the paper. DESIGN.md §3 indexes the experiments.")
}
