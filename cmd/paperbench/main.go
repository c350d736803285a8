// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Tables I–V, Figures 2–4, the §IV-C CP comparison)
// plus the §IV-B ablations, printing paper-reference numbers next to
// measured ones.
//
// Usage:
//
//	paperbench [-scale quick|laptop|paper] table1|table2|table3|table4|table5
//	paperbench [-scale ...] fig2|fig3|fig4|cp|ablation
//	paperbench [-scale ...] all
//
// The default "laptop" scale shrinks instance sizes and run counts so the
// full suite finishes in minutes on one machine while preserving every
// qualitative property the paper claims; "paper" uses the exact published
// grids (CPU-days). See DESIGN.md §3 for the per-experiment index.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

func main() {
	scaleName := flag.String("scale", "laptop", "experiment scale: quick, laptop or paper")
	flag.Parse()

	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick, laptop or paper)\n", *scaleName)
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: paperbench [-scale quick|laptop|paper] <experiment>|all")
		fmt.Fprintln(os.Stderr, "experiments: table1 table2 table3 table4 table5 fig2 fig3 fig4 cp ablation")
		os.Exit(2)
	}

	experiments := map[string]func(Scale){
		"table1":   runTable1,
		"table2":   runTable2,
		"table3":   runTable3,
		"table4":   runTable4,
		"table5":   runTable5,
		"fig2":     runFig2,
		"fig3":     runFig3,
		"fig4":     runFig4,
		"cp":       runCP,
		"ablation": runAblation,
	}
	order := []string{"table1", "table2", "cp", "table3", "table4", "table5", "fig2", "fig3", "fig4", "ablation"}

	start := time.Now()
	for _, arg := range flag.Args() {
		if arg == "all" {
			for _, name := range order {
				experiments[name](sc)
			}
			continue
		}
		run, ok := experiments[arg]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", arg)
			os.Exit(2)
		}
		run(sc)
	}
	fmt.Printf("\ntotal harness time: %v (scale=%s)\n", time.Since(start).Round(time.Millisecond), sc.Name)
}
