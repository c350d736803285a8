// Command perfbench records the repository's performance trajectory: it
// runs the paper-table macro-benchmarks and the CAP hot-path kernel
// microbenches through testing.Benchmark and emits machine-readable
// BENCH_costas.json, comparing against the previously recorded numbers.
//
// Usage:
//
//	perfbench                          # full run, write BENCH_costas.json
//	perfbench -smoke                   # quick CI mode + allocation gate
//	perfbench -benchtime 5s -out /tmp/bench.json
//	perfbench -baseline BENCH_costas.json
//
// In -smoke mode each benchmark runs a short time-based count (0.3s —
// fast enough for CI, long enough that ns/op is steady-state and
// comparable to the committed 2s numbers) and the run FAILS (exit 1) if
// any steady-state benchmark — the kernel microbenches and the post-Bind
// engine loop — reports a non-zero allocs/op: the zero-allocation hot
// path is a regression gate, not an aspiration. Smoke mode also gates
// *speed*: a steady-state benchmark that runs more than -maxregress
// (default 10 %) slower than its committed baseline ns/op fails the run,
// so a hot-path slowdown cannot land silently even when it allocates
// nothing. To keep the committed trajectory clean, smoke mode does NOT
// overwrite BENCH_costas.json unless -out is given explicitly.
//
// When a baseline file is present (by default the committed
// BENCH_costas.json), each benchmark also reports the recorded baseline
// ns/op and the speedup of this run against it, so the committed file
// carries the before/after trajectory from PR to PR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/dialectic"
	"repro/internal/hillclimb"
	"repro/internal/rng"
	"repro/internal/tabu"

	"context"
)

// Result is one benchmark's record in the BENCH_costas.json schema
// (documented in README.md).
type Result struct {
	// Name identifies the benchmark: "kernel/..." are hot-path
	// microbenches, "engine/..." steady-state engine loops, "tableN/..."
	// paper-table macro units.
	Name string `json:"name"`
	// NsOp is wall nanoseconds per operation.
	NsOp float64 `json:"ns_op"`
	// AllocsOp / BytesOp are heap allocations and bytes per operation.
	// For steady-state rows AllocsOp is testing.AllocsPerRun's count.
	AllocsOp int64 `json:"allocs_op"`
	BytesOp  int64 `json:"bytes_op"`
	// ItersOp is engine repair iterations per operation for solve
	// benchmarks (the machine-independent work unit of the paper).
	ItersOp float64 `json:"iters_op,omitempty"`
	// BaselineNsOp is the previously recorded ns/op for this benchmark
	// (from the -baseline file), and Speedup = BaselineNsOp / NsOp.
	BaselineNsOp float64 `json:"baseline_ns_op,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	// SteadyState marks benchmarks gated to 0 allocs/op in -smoke mode.
	SteadyState bool `json:"steady_state,omitempty"`
}

// File is the top-level BENCH_costas.json document. CPUModel, GOMAXPROCS
// and GOAMD64 identify the machine the ns_op figures come from, so two
// files can be told apart as same-machine or not; a file recorded before
// they existed lacks them.
type File struct {
	Schema     string   `json:"schema"`
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	CPUModel   string   `json:"cpu_model,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	GOAMD64    string   `json:"goamd64,omitempty"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" where
// there is no such file.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// goamd64 returns the GOAMD64 level the binary was built for, from its
// build settings ("" off amd64 or without build info).
func goamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "GOAMD64" {
				return st.Value
			}
		}
	}
	return ""
}

var sink int // defeats dead-code elimination in the microbenches

// steadyAllocRuns is how many calls a steady-state row's allocs/op is
// averaged over.
const steadyAllocRuns = 100

// runAll executes the benchmark suite at the given benchtime and returns
// the results in declaration order. A benchmark that aborts (b.Fatal
// inside testing.Benchmark yields a zero result) surfaces as an error —
// zero ns/op must never be recorded as a real measurement.
func runAll(benchtime string) ([]Result, error) {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("invalid benchtime %q: %w", benchtime, err)
	}
	var failed error
	out := make([]Result, 0, 8)
	add := func(name string, steady bool, iters float64, r testing.BenchmarkResult) {
		if r.N == 0 && failed == nil {
			failed = fmt.Errorf("benchmark %s failed (zero result: a solve aborted or the benchmark called Fatal)", name)
		}
		out = append(out, Result{
			Name:        name,
			NsOp:        float64(r.NsPerOp()),
			AllocsOp:    r.AllocsPerOp(),
			BytesOp:     r.AllocedBytesPerOp(),
			ItersOp:     iters,
			SteadyState: steady,
		})
	}

	// steady records a steady-state row, the rows the allocation gate
	// holds at exactly 0 allocs/op. Its ns/op comes from
	// testing.Benchmark, its allocs/op from testing.AllocsPerRun: the
	// benchmark divides process-wide mallocs by b.N, so at
	// -benchtime=1x a single stray runtime allocation reads as one per
	// op, while AllocsPerRun warms the op up, runs it steadyAllocRuns
	// times and counts only what every call allocates.
	steady := func(name string, op func(k int)) {
		r := testing.Benchmark(func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				op(k)
			}
		})
		k := 0
		allocs := testing.AllocsPerRun(steadyAllocRuns, func() {
			op(k)
			k++
		})
		add(name, true, 0, r)
		out[len(out)-1].AllocsOp = int64(allocs)
	}

	// kernel/swap_delta_n18 — the min-conflict probe kernel itself: pure
	// read-only delta evaluation over the flattened difference triangle.
	{
		m := costas.New(18, costas.Options{})
		m.Bind(csp.RandomConfiguration(18, rng.New(1)))
		steady("kernel/swap_delta_n18", func(k int) {
			i := k % 18
			sink += m.SwapDelta(i, (i+1+k%17)%18)
		})
	}

	// kernel/cost_if_swap_n18 — the same probe through the plain
	// csp.Model interface (what non-delta engines pay).
	{
		m := costas.New(18, costas.Options{})
		m.Bind(csp.RandomConfiguration(18, rng.New(1)))
		steady("kernel/cost_if_swap_n18", func(k int) {
			i := k % 18
			sink += m.CostIfSwap(i, (i+1+k%17)%18)
		})
	}

	// kernel/scan_swaps_n18 — the batched neighborhood probe: one op is a
	// whole ScanSwaps pass computing all n−1 candidate deltas for one
	// variable, so the amortized per-candidate cost is ns_op/(n−1);
	// compare against kernel/swap_delta_n18's per-probe cost to see the
	// batch win (the acceptance bar is ≤ 0.5× per candidate).
	{
		m := costas.New(18, costas.Options{})
		m.Bind(csp.RandomConfiguration(18, rng.New(1)))
		deltas := make([]int, 18)
		steady("kernel/scan_swaps_n18", func(k int) {
			m.ScanSwaps(k%18, deltas)
			sink += deltas[(k+1)%18]
		})
	}

	// kernel/scan_swaps_n32 and kernel/scan_swaps_n33 — a full row on
	// either side of the kernel boundary: n = 32 is the widest SWAR order
	// (15 rows, the most a default model of that sweep checks), n = 33
	// the first counter-gather one.
	for _, n := range []int{32, 33} {
		m := costas.New(n, costas.Options{})
		m.Bind(csp.RandomConfiguration(n, rng.New(1)))
		deltas := make([]int, n)
		steady(fmt.Sprintf("kernel/scan_swaps_n%d", n), func(k int) {
			m.ScanSwaps(k%n, deltas)
			sink += deltas[(k+1)%n]
		})
	}

	// kernel/scan_suffixes_n18 — the half neighborhood tabu search and
	// dialectic descent scan: one op is ScanSwaps(i, deltas[i+1:]) for
	// every i, the (n²−n)/2 candidates j > i in n−1 ever shorter suffix
	// rows, so the per-row setup weighs as much as the sweep.
	{
		m := costas.New(18, costas.Options{})
		m.Bind(csp.RandomConfiguration(18, rng.New(1)))
		deltas := make([]int, 18)
		steady("kernel/scan_suffixes_n18", func(k int) {
			for i := 0; i < 18; i++ {
				m.ScanSwaps(i, deltas[i+1:])
			}
			sink += deltas[(k+1)%18]
		})
	}

	// kernel/scan_swaps_n96 — a full row on a wide instance: n = 96 rows
	// are wider than one machine word, so this is the counter-gather
	// sweep rather than the SWAR one.
	{
		m := costas.New(96, costas.Options{})
		m.Bind(csp.RandomConfiguration(96, rng.New(1)))
		deltas := make([]int, 96)
		steady("kernel/scan_swaps_n96", func(k int) {
			m.ScanSwaps(k%96, deltas)
			sink += deltas[(k+1)%96]
		})
	}

	// kernel/commit_swap_n18 — the write path: probe once, commit with
	// the probed delta (the ScanModel contract engines commit through).
	{
		m := costas.New(18, costas.Options{})
		m.Bind(csp.RandomConfiguration(18, rng.New(1)))
		steady("kernel/commit_swap_n18", func(k int) {
			i := k % 18
			j := (i + 1 + k%17) % 18
			m.CommitSwap(i, j, m.SwapDelta(i, j))
		})
	}

	// kernel/bind_n18 — full counter rebuild (reset/restart path).
	{
		m := costas.New(18, costas.Options{})
		cfg := csp.RandomConfiguration(18, rng.New(1))
		steady("kernel/bind_n18", func(int) { m.Bind(cfg) })
	}

	// kernel/cost_of_n18 — scoring a configuration without rebinding
	// (CostOf, dialectic's synthesis path): one row presence mask and
	// popcount per checked triangle row. Compare with kernel/bind_n18.
	{
		m := costas.New(18, costas.Options{})
		r := rng.New(1)
		m.Bind(csp.RandomConfiguration(18, r))
		cfg := csp.RandomConfiguration(18, r)
		steady("kernel/cost_of_n18", func(int) { sink += m.CostOf(cfg) })
	}

	// engine/*_steady_n18 — one Step(1) of an engine's post-Bind loop,
	// restarts included: an Adaptive Search repair iteration, a tabu scan
	// of the quadratic neighborhood plus its move, a dialectic round, one
	// sampled hill-climbing probe (committed when it improves).
	for _, eng := range []struct {
		name string
		e    csp.Restartable
	}{
		{"engine/adaptive_steady_n18", adaptive.NewEngine(costas.New(18, costas.Options{}), costas.TunedParams(18), 7)},
		{"engine/tabu_steady_n18", tabu.New(costas.New(18, costas.Options{}), tabu.Params{}, 7)},
		{"engine/dialectic_steady_n18", dialectic.New(costas.New(18, costas.Options{}), dialectic.Params{}, 7)},
		{"engine/hillclimb_steady_n18", hillclimb.New(costas.New(18, costas.Options{}), hillclimb.Params{}, 7)},
	} {
		e := eng.e
		scratch := make([]int, 18)
		reseed := rng.New(99)
		e.Step(512) // warm past one-time work
		steady(eng.name, func(int) {
			if e.Solved() {
				reseed.PermInto(scratch)
				e.RestartFrom(scratch)
			}
			e.Step(1)
		})
	}

	// table1/sequential_n13 — Table I's unit of work: one sequential
	// Adaptive Search solve from a fresh random configuration (the
	// BenchmarkTableISequential counterpart, seeds k+1).
	{
		var iters, ops int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				m := costas.New(13, costas.Options{})
				e := adaptive.NewEngine(m, costas.TunedParams(13), uint64(k)+1)
				if !e.Solve() {
					b.Fatal("unsolved")
				}
				iters += e.Stats().Iterations
				ops++
			}
		})
		add("table1/sequential_n13", false, float64(iters)/float64(ops), r)
	}

	// pool/batch8_n10_direct vs pool/batch8_n10_sharded2 — the
	// distribution layer's dispatch overhead: the same 8-job CAP batch
	// through core.SolveBatch directly and through a backend.Pool over
	// two Local members (health probes, the work-stealing queue, chunked
	// dispatch). The ns/op difference is what coordinating costs when the
	// transport is free; the wire adds on top (see the service bench).
	{
		jobs := core.BatchCAP([]int{10, 10, 10, 10, 10, 10, 10, 10}, core.Options{})
		batchOpts := func(k int) core.BatchOptions {
			return core.BatchOptions{MasterSeed: uint64(k)*104729 + 1}
		}
		run := func(b *testing.B, dispatch func(k int) (core.BatchResult, error)) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				res, err := dispatch(k)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Solved != len(jobs) {
					b.Fatalf("solved %d of %d", res.Stats.Solved, len(jobs))
				}
			}
		}
		add("pool/batch8_n10_direct", false, 0, testing.Benchmark(func(b *testing.B) {
			run(b, func(k int) (core.BatchResult, error) {
				return core.SolveBatch(context.Background(), jobs, batchOpts(k))
			})
		}))
		pool, err := backend.NewPool([]backend.Backend{backend.NewLocal(), backend.NewLocal()}, backend.PoolConfig{ChunkSize: 2})
		if err != nil {
			return out, err
		}
		add("pool/batch8_n10_sharded2", false, 0, testing.Benchmark(func(b *testing.B) {
			run(b, func(k int) (core.BatchResult, error) {
				return pool.SolveBatch(context.Background(), jobs, batchOpts(k))
			})
		}))
	}

	return out, failed
}

// suiteOf buckets a row name into the suite that produces it, for
// carry-over of skipped suites.
func suiteOf(name string) string {
	switch {
	case strings.HasPrefix(name, "racing/"):
		return "racing"
	default:
		return "kernel"
	}
}

// carryOver appends baseline rows belonging to a suite this run skipped.
func carryOver(results []Result, base *File, ran map[string]bool) []Result {
	for _, b := range base.Benchmarks {
		if !ran[suiteOf(b.Name)] {
			results = append(results, b)
		}
	}
	return results
}

// mergeBaseline fills BaselineNsOp/Speedup from a previously recorded file.
func mergeBaseline(results []Result, baseline *File) {
	prev := map[string]Result{}
	for _, b := range baseline.Benchmarks {
		prev[b.Name] = b
	}
	for i := range results {
		if p, ok := prev[results[i].Name]; ok && p.NsOp > 0 && results[i].NsOp > 0 {
			results[i].BaselineNsOp = p.NsOp
			results[i].Speedup = p.NsOp / results[i].NsOp
		}
	}
}

func main() {
	var (
		smoke      = flag.Bool("smoke", false, "CI mode: short runs + fail on steady-state allocs/op > 0, a >maxregress slowdown vs baseline, or a racing row whose iters/op differs from the baseline; writes no file unless -out is given")
		maxregress = flag.Float64("maxregress", 0.10, "with -smoke: allowed fractional steady-state slowdown vs the baseline file (0.10 = 10%)")
		benchtime  = flag.String("benchtime", "", `testing benchtime (default "2s", or "0.3s" with -smoke)`)
		kernel     = flag.Bool("kernel", false, "run only the kernel/engine/table/pool suite")
		racing     = flag.Bool("racing", false, "run only the racing-portfolio suite (time-to-first-solution, racing vs static arms)")
		rebaseline = flag.Bool("rebaseline", false, "reset every recorded row's baseline to THIS run (baseline_ns_op = ns_op, speedup = 1); refused with -smoke")
		out        = flag.String("out", "BENCH_costas.json", "output file (\"-\" for stdout)")
		baseline   = flag.String("baseline", "BENCH_costas.json", "recorded baseline to compare against (skipped if missing)")
	)
	flag.Parse()
	// No suite flag = the full recording run does all suites.
	all := !*kernel && !*racing
	doKernel, doRacing := *kernel || all, *racing || all
	if *rebaseline && *smoke {
		// Smoke numbers come from short runs; recording them as the
		// baseline would poison every later -maxregress comparison.
		fmt.Fprintln(os.Stderr, "perfbench: -rebaseline is refused with -smoke: a baseline must come from a full-length recording run")
		os.Exit(2)
	}
	testing.Init()
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})

	bt := *benchtime
	if bt == "" {
		if *smoke {
			// Time-based, not a fixed iteration count: ns/op from a
			// 0.3s run is steady-state and comparable to the 2s
			// baseline, which the -maxregress speed gate requires.
			bt = "0.3s"
		} else {
			bt = "2s"
		}
	}

	var base *File
	if *baseline != "" {
		if raw, err := os.ReadFile(*baseline); err == nil {
			var f File
			if err := json.Unmarshal(raw, &f); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: bad baseline %s: %v\n", *baseline, err)
				os.Exit(2)
			}
			base = &f
		}
	}

	var results []Result
	if doKernel {
		r, err := runAll(bt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		results = append(results, r...)
	}
	if doRacing {
		r, err := runRacingSuite()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		results = append(results, r...)
	}
	// fileRows is what gets recorded: a single-suite run keeps the other
	// suites' committed rows (verbatim, their recorded trajectory intact)
	// so a partial regeneration never drops part of the file. Printing and
	// the smoke gates below stay on `results` — only rows actually
	// measured this run are reported or gated.
	fileRows := results
	if base != nil {
		mergeBaseline(results, base)
		fileRows = carryOver(results, base, map[string]bool{
			"kernel": doKernel, "racing": doRacing,
		})
	}
	if *rebaseline {
		// The trajectory restarts here: every row's baseline becomes this
		// run's measurement. Speedups recorded on other machines (or CPU
		// counts) are not comparable anyway — see README.
		for i := range fileRows {
			if fileRows[i].NsOp > 0 {
				fileRows[i].BaselineNsOp = fileRows[i].NsOp
				fileRows[i].Speedup = 1
			}
		}
	}

	doc := File{
		Schema:     "bench_costas/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    goamd64(),
		Benchtime:  bt,
		Benchmarks: fileRows,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	switch {
	case *smoke && !outSet:
		// A smoke run is a gate, not a recording: never clobber the
		// committed trajectory with short-run numbers by default.
	case *out == "-":
		os.Stdout.Write(enc)
	default:
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}

	failed := false
	for _, r := range results {
		line := fmt.Sprintf("%-32s %12.0f ns/op %8d allocs/op", r.Name, r.NsOp, r.AllocsOp)
		if r.ItersOp > 0 {
			line += fmt.Sprintf(" (%.0f iters/op)", r.ItersOp)
		}
		if r.Speedup > 0 {
			line += fmt.Sprintf("  %.2fx vs baseline", r.Speedup)
		}
		fmt.Fprintln(os.Stderr, line)
		if *smoke && r.SteadyState && r.AllocsOp > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s allocates %d allocs/op; the steady-state hot path must be allocation-free\n",
				r.Name, r.AllocsOp)
			failed = true
		}
		if *smoke && r.SteadyState && r.Speedup > 0 && r.Speedup < 1-*maxregress {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s regressed to %.0f ns/op (%.2fx of the %.0f ns/op baseline, tolerance %.0f%%)\n",
				r.Name, r.NsOp, r.Speedup, r.BaselineNsOp, 100**maxregress)
			failed = true
		}
	}
	// The racing gate compares fixed-seed lockstep iteration counts —
	// bit-reproducible on any machine, so it needs no slack for CI runner
	// speed: each row must equal its baseline exactly, and -maxregress is
	// only the policy allowance vs the best static arm.
	if *smoke && doRacing && gateRacing(results, base, *maxregress) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
