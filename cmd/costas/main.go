// Command costas solves one Costas Array Problem instance with any of the
// library's search methods, sequentially or by independent multi-walk.
//
// Usage:
//
//	costas -n 18                          # sequential Adaptive Search solve
//	costas -n 20 -walkers 8               # 8 concurrent walkers
//	costas -n 20 -walkers 256 -virtual    # simulate a 256-core cluster
//	costas -n 14 -method dialectic        # a baseline method instead of AS
//	costas -n 14 -method tabu -walkers 4  # baselines run parallel too
//	costas -n 16 -method portfolio -walkers 8   # mix all methods in one run
//	costas -n 17 -grid -triangle          # pretty-print the solution
//	costas -n 16 -construct               # algebraic construction instead of search
//	costas -n 12 -method cp               # complete CP search (no multi-walk)
//	costas -batch 12,13,14                # solve a batch of orders concurrently
//	costas -batch 14,15 -count 10         # 10 solves per order
//	costas -model "nqueens n=64"          # any registered model via the registry
//	costas -model "magicsquare k=5 method=tabu walkers=4"
//	costas -models                        # list the model catalogue
//	costas -n 18 -addr localhost:8080     # submit to a solverd node or cluster
//	costas -batch 14,15 -addr host:8080   # remote batch (sharded by a coordinator)
//	costas -campaign "costas n=24" -hours 48 -addr host:8080   # durable fleet search
//	costas -campaign "costas n=24" -hours 48 -data ./camp      # same, in-process
//	                                      # (re-running resumes from the last checkpoint)
//	costas -n 20 -cpuprofile cpu.pb.gz    # profile the solve (go tool pprof)
//	costas -n 20 -memprofile mem.pb.gz    # heap profile written on exit
//
// The exit status is 0 on success and 1 if the instance (or any batch
// job) was not solved within the given budget.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/cp"
	"repro/internal/csp"
	"repro/internal/registry"
)

func main() {
	var (
		n         = flag.Int("n", 18, "Costas array order")
		method    = flag.String("method", "adaptive", "search method: "+strings.Join(core.Methods(), ", ")+", or cp (complete search)")
		portfolio = flag.String("portfolio", "", "comma-separated method mix for -method portfolio (default all four)")
		walkers   = flag.Int("walkers", 1, "number of independent walkers")
		virtual   = flag.Bool("virtual", false, "lockstep virtual cluster instead of goroutines")
		seed      = flag.Uint64("seed", 1, "master seed (reproducible runs)")
		maxIter   = flag.Int64("maxiter", 0, "per-walker iteration budget (0 = unlimited)")
		grid      = flag.Bool("grid", false, "print the n×n grid")
		triangle  = flag.Bool("triangle", false, "print the difference triangle")
		quiet     = flag.Bool("q", false, "print only the array")
		construct = flag.Bool("construct", false, "use a Welch/Golomb construction instead of search")
		platform  = flag.String("platform", "", "also report virtual seconds on a paper platform (ha8000, suno, helios, jugene, t7500)")
		batch     = flag.String("batch", "", "comma-separated orders to solve as one concurrent batch (overrides -n)")
		count     = flag.Int("count", 1, "solves per batch order (batch mode only)")
		jobs      = flag.Int("jobs", 0, "concurrent batch jobs (0 = GOMAXPROCS)")
		model     = flag.String("model", "", `registry run spec, e.g. "nqueens n=64 method=tabu" (overrides -n)`)
		addr      = flag.String("addr", "", "submit to a remote solverd node or coordinator at this address instead of solving in-process")
		models    = flag.Bool("models", false, "list the registered models and exit")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		campSpec  = flag.String("campaign", "", `run a durable checkpointed campaign on this run spec, e.g. "costas n=24" (pairs with -hours, -shards, -snapshot; remote via -addr, else in-process under -data)`)
		hours     = flag.Float64("hours", 0, "campaign wall-clock budget in hours (0 = until solved or cancelled)")
		shards    = flag.Int("shards", 0, "campaign shards — independently assignable walk groups (0 = default)")
		snapshot  = flag.Int64("snapshot", 0, "campaign checkpoint cadence in per-walker iterations (0 = default)")
		dataDir   = flag.String("data", "./campaigns", "campaign data directory for in-process campaigns (ignored with -addr)")
	)
	flag.Parse()
	startProfiles(*cpuprof, *memprof)
	defer stopProfiles()

	if *models {
		for _, e := range registry.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Description)
			for _, p := range e.Params {
				fmt.Printf("             %s: %s (default %d, min %d)\n", p.Name, p.Description, p.Default, p.Min)
			}
		}
		fmt.Printf("spec option keys: %s\n", strings.Join(core.OptionKeys(), ", "))
		return
	}

	methodSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "method" {
			methodSet = true
		}
	})
	if *portfolio != "" && *method != "portfolio" {
		if methodSet {
			fmt.Fprintf(os.Stderr, "-portfolio conflicts with -method %s (use -method portfolio)\n", *method)
			exit(2)
		}
		*method = "portfolio" // -portfolio alone implies portfolio mode
	}

	if *campSpec != "" {
		if *batch != "" || *model != "" || *construct || *method == "cp" {
			fmt.Fprintln(os.Stderr, "-campaign is a standalone mode; -batch, -model, -construct and -method cp do not apply")
			exit(2)
		}
		runCampaign(campaignParams{
			spec:     *campSpec,
			hours:    *hours,
			shards:   *shards,
			walkers:  *walkers,
			snapshot: *snapshot,
			seed:     *seed,
			addr:     *addr,
			dataDir:  *dataDir,
			quiet:    *quiet,
		})
		return
	}

	// -addr swaps the execution backend: every solve (single, -model,
	// -batch) is submitted over HTTP instead of running in-process.
	var remote core.Backend
	if *addr != "" {
		if *construct || *method == "cp" {
			fmt.Fprintln(os.Stderr, "-addr submits to the multi-walk service; -construct and -method cp are local-only modes")
			exit(2)
		}
		remote = backend.NewRemote(*addr)
	}

	if *construct {
		if *batch != "" {
			fmt.Fprintln(os.Stderr, "-batch is a search mode; -construct does not support it")
			exit(2)
		}
		if *model != "" {
			fmt.Fprintln(os.Stderr, "-model is a search mode; -construct does not support it")
			exit(2)
		}
		arr := core.Construct(*n)
		if arr == nil {
			fmt.Fprintf(os.Stderr, "no classical construction covers order %d (that is why the paper searches)\n", *n)
			exit(1)
		}
		emit(arr, *grid, *triangle, *quiet)
		return
	}

	if *method == "cp" {
		if *batch != "" {
			fmt.Fprintln(os.Stderr, "-batch is a multi-walk mode; -method cp does not support it")
			exit(2)
		}
		if *model != "" {
			fmt.Fprintln(os.Stderr, "-model is a multi-walk mode; -method cp does not support it")
			exit(2)
		}
		runCP(*n, *maxIter, *grid, *triangle, *quiet)
		return
	}

	if *model != "" {
		if *batch != "" || *grid || *triangle || *platform != "" {
			fmt.Fprintln(os.Stderr, "-model is a generic single-solve mode; -batch, -grid, -triangle and -platform do not apply")
			exit(2)
		}
		runModel(*model, core.Options{
			Method:        *method,
			Walkers:       *walkers,
			Virtual:       *virtual,
			Seed:          *seed,
			MaxIterations: *maxIter,
			Backend:       remote,
		}, *portfolio, *quiet)
		return
	}

	if *batch != "" {
		if *grid || *triangle || *platform != "" {
			fmt.Fprintln(os.Stderr, "-grid, -triangle and -platform are single-instance reports; -batch does not support them")
			exit(2)
		}
		runBatch(*batch, *count, *jobs, batchTemplate{
			method:    *method,
			portfolio: *portfolio,
			walkers:   *walkers,
			virtual:   *virtual,
			seed:      *seed,
			maxIter:   *maxIter,
			quiet:     *quiet,
			backend:   remote,
		})
		return
	}

	opts := core.Options{
		N:             *n,
		Method:        *method,
		Walkers:       *walkers,
		Virtual:       *virtual,
		Seed:          *seed,
		MaxIterations: *maxIter,
		Backend:       remote,
	}
	if *portfolio != "" {
		opts.Portfolio = strings.Split(*portfolio, ",")
	}
	res, err := core.Solve(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	if !res.Solved {
		fmt.Fprintf(os.Stderr, "unsolved within budget (total %d iterations over %d walkers)\n",
			res.TotalIterations, len(res.Stats))
		exit(1)
	}
	emit(res.Array, *grid, *triangle, *quiet)
	if !*quiet {
		fmt.Printf("method=%s walkers=%d winner=%d iterations=%d total_iterations=%d wall=%v\n",
			*method, len(res.Stats), res.Winner, res.Iterations, res.TotalIterations, res.WallTime)
		fmt.Printf("winner stats: %s\n", statsLine(res.Stats[res.Winner]))
		if *platform != "" {
			p, ok := cluster.Platforms[*platform]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
				exit(2)
			}
			fmt.Printf("virtual time on %s: %.3f s\n", p.Name, p.Seconds(res.Iterations))
		}
	}
}

// runModel solves one registry run spec (-model) with the CLI's flag
// values as base options; spec keys override flags. Generic models print
// the raw 0-based permutation — 1-based output is a Costas-paper idiom.
func runModel(spec string, base core.Options, portfolio string, quiet bool) {
	if portfolio != "" {
		base.Portfolio = strings.Split(portfolio, ",")
	}
	inst, opts, err := core.ParseRunSpec(spec, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	res, err := core.SolveInstance(context.Background(), inst, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	if !res.Solved {
		fmt.Fprintf(os.Stderr, "%s: unsolved within budget (total %d iterations over %d walkers)\n",
			inst.Spec, res.TotalIterations, len(res.Stats))
		exit(1)
	}
	fmt.Println(res.Array)
	if !quiet {
		fmt.Printf("model=%s walkers=%d winner=%d iterations=%d total_iterations=%d wall=%v\n",
			inst.Spec, len(res.Stats), res.Winner, res.Iterations, res.TotalIterations, res.WallTime)
		fmt.Printf("winner stats: %s\n", statsLine(res.Stats[res.Winner]))
	}
}

// batchTemplate carries the per-job options shared by every job of a
// -batch run.
type batchTemplate struct {
	method    string
	portfolio string
	walkers   int
	virtual   bool
	seed      uint64
	maxIter   int64
	quiet     bool
	backend   core.Backend // non-nil submits the batch to a remote cluster (-addr)
}

// runBatch solves `-batch n1,n2,...` × `-count` concurrently through
// core.SolveBatch and prints one line per job plus the aggregate. The
// master seed is -seed; per-job seeds are derived from it, so a virtual
// batch is reproducible run for run.
func runBatch(orders string, count, jobs int, tmpl batchTemplate) {
	var ns []int
	for _, field := range strings.Split(orders, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -batch order %q: %v\n", field, err)
			exit(2)
		}
		ns = append(ns, n)
	}
	if count < 1 {
		count = 1
	}
	opts := core.Options{
		Method:        tmpl.method,
		Walkers:       tmpl.walkers,
		Virtual:       tmpl.virtual,
		MaxIterations: tmpl.maxIter,
	}
	if tmpl.portfolio != "" {
		opts.Portfolio = strings.Split(tmpl.portfolio, ",")
	}
	repeated := make([]int, 0, len(ns)*count)
	for _, n := range ns {
		for k := 0; k < count; k++ {
			repeated = append(repeated, n)
		}
	}
	res, err := core.SolveBatch(context.Background(), core.BatchCAP(repeated, opts), core.BatchOptions{
		Concurrency: jobs,
		MasterSeed:  tmpl.seed,
		Backend:     tmpl.backend,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	failed := false
	for i, jr := range res.Jobs {
		n := repeated[i]
		switch {
		case jr.Err != nil:
			failed = true
			fmt.Fprintf(os.Stderr, "job %d (n=%d): %v\n", i, n, jr.Err)
		case !jr.Result.Solved:
			failed = true
			fmt.Fprintf(os.Stderr, "job %d (n=%d): unsolved within budget (%d iterations)\n",
				i, n, jr.Result.TotalIterations)
		case tmpl.quiet:
			emit(jr.Result.Array, false, false, true)
		default:
			fmt.Printf("job %d: n=%d solved iterations=%d total_iterations=%d wall=%v\n",
				i, n, jr.Result.Iterations, jr.Result.TotalIterations, jr.Result.WallTime)
		}
	}
	if !tmpl.quiet {
		st := res.Stats
		fmt.Printf("batch: jobs=%d solved=%d errors=%d total_iterations=%d wall=%v throughput=%.1f solves/s\n",
			st.Jobs, st.Solved, st.Errors, st.TotalIterations, st.WallTime, st.SolvesPerSec)
	}
	if failed {
		exit(1)
	}
}

// statsLine renders the counters a method actually filled (each method
// uses a different subset of the unified csp.Stats block).
func statsLine(s csp.Stats) string {
	fields := []struct {
		name  string
		value int64
	}{
		{"local_minima", s.LocalMinima}, {"resets", s.Resets}, {"restarts", s.Restarts},
		{"swaps", s.Swaps}, {"plateau", s.PlateauMoves}, {"uphill", s.UphillMoves},
		{"moves", s.Moves}, {"aspirations", s.Aspirations}, {"rounds", s.Rounds},
		{"descents", s.Descents}, {"evaluations", s.Evaluations},
	}
	parts := []string{}
	for _, f := range fields {
		if f.value != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.name, f.value))
		}
	}
	if len(parts) == 0 {
		return "(no events)"
	}
	return strings.Join(parts, " ")
}

// runCP solves with the complete CP solver (§IV-C) — deterministic tree
// search, so it sits outside the multi-walk machinery.
func runCP(n int, maxIter int64, grid, triangle, quiet bool) {
	s, err := cp.New(n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	s.SetNodeBudget(maxIter)
	start := time.Now()
	sol, err := s.FirstSolution()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if sol == nil || !costas.IsCostas(sol) {
		fmt.Fprintln(os.Stderr, "cp: unsolved within budget")
		exit(1)
	}
	emit(sol, grid, triangle, quiet)
	if !quiet {
		st := s.Stats()
		fmt.Printf("method=cp wall=%v nodes=%d backtracks=%d\n", time.Since(start), st.Nodes, st.Backtracks)
	}
}

func emit(arr []int, grid, triangle, quiet bool) {
	one := make([]int, len(arr))
	for i, v := range arr {
		one[i] = v + 1 // print 1-based like the paper's [3,4,2,1,5] example
	}
	fmt.Println(one)
	if quiet {
		return
	}
	if grid {
		fmt.Print(costas.Grid(arr))
	}
	if triangle {
		for d, row := range costas.Triangle(arr) {
			fmt.Printf("d=%d: %v\n", d+1, row)
		}
	}
}
