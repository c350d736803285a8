package repro

// One testing.B benchmark per table and figure of the paper's evaluation
// section, plus the §IV-B ablations. These are micro-scale counterparts of
// cmd/paperbench (which prints the full paper-formatted tables): instance
// sizes are chosen so a single op is milliseconds, making `go test
// -bench=.` complete quickly while still exercising the exact code paths
// each experiment uses. Every benchmark reports iterations/op (engine
// repair iterations) alongside ns/op, since iterations are the
// machine-independent cost unit the paper's analysis is built on.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/cp"
	"repro/internal/csp"
	"repro/internal/dialectic"
	"repro/internal/hillclimb"
	"repro/internal/tabu"
	"repro/internal/walk"
)

const (
	benchSeqN  = 13 // sequential-solve benchmarks
	benchParN  = 13 // multi-walk benchmarks
	benchBaseN = 12 // baseline-solver benchmarks (DS/tabu/HC are slower)
)

func solveOnce(b *testing.B, n int, opts costas.Options, params adaptive.Params, seed uint64) int64 {
	m := costas.New(n, opts)
	e := adaptive.NewEngine(m, params, seed)
	if !e.Solve() {
		b.Fatal("unsolved")
	}
	return e.Stats().Iterations
}

// BenchmarkTableISequential is Table I's unit of work: one sequential
// Adaptive Search solve from a fresh random configuration.
func BenchmarkTableISequential(b *testing.B) {
	b.ReportAllocs()
	var iters int64
	for i := 0; i < b.N; i++ {
		iters += solveOnce(b, benchSeqN, costas.Options{}, costas.TunedParams(benchSeqN), uint64(i)+1)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
}

// BenchmarkTableIIDialecticVsAS runs the two solvers Table II compares
// under identical conditions; the AS/DS ns-per-op ratio is the table's
// DS/AS column in miniature.
func BenchmarkTableIIDialecticVsAS(b *testing.B) {
	b.Run("AdaptiveSearch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solveOnce(b, benchBaseN, costas.Options{}, costas.TunedParams(benchBaseN), uint64(i)+1)
		}
	})
	b.Run("DialecticSearch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := costas.New(benchBaseN, costas.Options{})
			s := dialectic.New(m, dialectic.Params{}, uint64(i)+1)
			if !s.Solve() {
				b.Fatal("unsolved")
			}
		}
	})
	b.Run("TabuSearch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := costas.New(benchBaseN, costas.Options{})
			s := tabu.New(m, tabu.Params{}, uint64(i)+1)
			if !s.Solve() {
				b.Fatal("unsolved")
			}
		}
	})
	b.Run("HillClimb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := costas.New(benchBaseN, costas.Options{})
			s := hillclimb.New(m, hillclimb.Params{}, uint64(i)+1)
			if !s.Solve() {
				b.Fatal("unsolved")
			}
		}
	})
}

// BenchmarkSectionIVCompleteCP is the §IV-C comparison unit: one complete
// CP first-solution search (deterministic, so the work is fixed per op).
func BenchmarkSectionIVCompleteCP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := cp.New(16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.FirstSolution(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVirtual(b *testing.B, n, cores int) {
	b.ReportAllocs()
	factory := func() csp.Model { return costas.New(n, costas.Options{}) }
	var iters int64
	for i := 0; i < b.N; i++ {
		res := walk.Virtual(context.Background(), factory, walk.Config{
			Walkers:    cores,
			Factory:    adaptive.Factory(costas.TunedParams(n)),
			MasterSeed: uint64(i)*7919 + 1,
		}, 0)
		if !res.Solved {
			b.Fatal("unsolved")
		}
		iters += res.WinnerIterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "winner-iterations/op")
}

// BenchmarkTableIIIMultiWalk is Table III's unit of work: one virtual
// multi-walk solve per HA8000 core count (winner-iterations/op is the
// virtual makespan; watch it fall as cores double).
func BenchmarkTableIIIMultiWalk(b *testing.B) {
	for _, cores := range []int{1, 32, 64, 128, 256} {
		b.Run(benchName("cores", cores), func(b *testing.B) { benchVirtual(b, benchParN, cores) })
	}
}

// BenchmarkTableIVJugene extends the core grid to the Blue Gene/P range.
func BenchmarkTableIVJugene(b *testing.B) {
	for _, cores := range []int{512, 2048, 8192} {
		b.Run(benchName("cores", cores), func(b *testing.B) { benchVirtual(b, benchParN, cores) })
	}
}

// BenchmarkTableVGrid5000 is the GRID'5000 table's unit of work — the
// measurement machinery is identical (rates differ only in reporting), so
// this pins the real-goroutine multi-walk path instead of the virtual one.
func BenchmarkTableVGrid5000(b *testing.B) {
	b.ReportAllocs()
	factory := func() csp.Model { return costas.New(benchParN, costas.Options{}) }
	for i := 0; i < b.N; i++ {
		res := walk.Parallel(context.Background(), factory, walk.Config{
			Walkers:    4,
			Factory:    adaptive.Factory(costas.TunedParams(benchParN)),
			MasterSeed: uint64(i)*104729 + 1,
		})
		if !res.Solved {
			b.Fatal("unsolved")
		}
	}
}

// BenchmarkFig2SpeedupPoint measures the two endpoints of Figure 2's
// speed-up curve (32 vs 256 cores at fixed instance size).
func BenchmarkFig2SpeedupPoint(b *testing.B) {
	b.Run("base32", func(b *testing.B) { benchVirtual(b, benchParN, 32) })
	b.Run("top256", func(b *testing.B) { benchVirtual(b, benchParN, 256) })
}

// BenchmarkFig3JugeneEndpoints measures Figure 3's 512→8192 extremes.
func BenchmarkFig3JugeneEndpoints(b *testing.B) {
	b.Run("base512", func(b *testing.B) { benchVirtual(b, benchParN, 512) })
	b.Run("top8192", func(b *testing.B) { benchVirtual(b, benchParN, 8192) })
}

// BenchmarkFig4TimeToTarget is Figure 4's unit of work: one runtime sample
// for the time-to-target distribution at 32 virtual cores.
func BenchmarkFig4TimeToTarget(b *testing.B) {
	benchVirtual(b, benchParN, 32)
}

// BenchmarkAblation measures the §IV-B model refinements (the bench
// counterpart of `paperbench ablation`).
func BenchmarkAblation(b *testing.B) {
	run := func(opts costas.Options, params adaptive.Params) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var iters int64
			for i := 0; i < b.N; i++ {
				iters += solveOnce(b, benchSeqN, opts, params, uint64(i)+1)
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
		}
	}
	n := benchSeqN
	b.Run("tuned", run(costas.Options{}, costas.TunedParams(n)))
	b.Run("quadraticErr", run(costas.Options{Err: costas.ErrQuadratic}, costas.TunedParams(n)))
	b.Run("fullTriangle", run(costas.Options{FullTriangle: true}, costas.TunedParams(n)))
	b.Run("genericReset", run(costas.Options{GenericReset: true}, costas.TunedParams(n)))
	b.Run("paperParams", run(costas.PaperOptions(), costas.PaperParams(n)))
}

// batchOrders is the BenchmarkBatchThroughput workload: a small stream of
// mixed CAP instances, the shape a hot server path sees.
func batchOrders() []int {
	return []int{10, 11, 12, 12, 11, 10, 12, 11}
}

// BenchmarkBatchThroughput compares the two ways to drain a stream of
// instances: a sequential core.Solve loop and core.SolveBatch over the
// worker pool. Solves/op is constant across sub-benchmarks, so ns/op is
// directly comparable — the batch layer must be at least as fast as the
// hand-rolled loop.
func BenchmarkBatchThroughput(b *testing.B) {
	orders := batchOrders()
	b.Run("sequentialLoop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, n := range orders {
				res, err := core.Solve(context.Background(),
					core.Options{N: n, Seed: uint64(i*len(orders)+j)*2654435761 + 1})
				if err != nil || !res.Solved {
					b.Fatalf("unsolved: %v", err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.SolveBatch(context.Background(),
				core.BatchCAP(orders, core.Options{}),
				core.BatchOptions{MasterSeed: uint64(i)*7919 + 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Solved != len(orders) {
				b.Fatalf("batch left jobs unsolved: %+v", res.Stats)
			}
		}
	})
}

// BenchmarkBatchVirtualMixed drives the acceptance-shaped batch — mixed
// orders × mixed methods on the virtual cluster — through the worker
// pool, the batch counterpart of the per-table virtual benches above.
func BenchmarkBatchVirtualMixed(b *testing.B) {
	b.ReportAllocs()
	var jobs []core.BatchJob
	for _, method := range []string{"adaptive", "tabu", "hillclimb", "dialectic"} {
		for _, n := range []int{10, 11, 12} {
			jobs = append(jobs, core.BatchJob{Options: core.Options{
				N: n, Method: method, Walkers: 4, Virtual: true,
			}})
		}
	}
	for i := 0; i < b.N; i++ {
		res, err := core.SolveBatch(context.Background(), jobs,
			core.BatchOptions{MasterSeed: uint64(i)*104729 + 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Solved != len(jobs) {
			b.Fatalf("batch left jobs unsolved: %+v", res.Stats)
		}
	}
}

func benchName(k string, v int) string {
	return fmt.Sprintf("%s=%d", k, v)
}
