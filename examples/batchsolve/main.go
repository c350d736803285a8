// Batchsolve demonstrates the throughput layer on top of the unified
// multi-walk scheduler: one core.SolveBatch call drains a stream of mixed
// instances — different orders, different methods — over a bounded worker
// pool, with per-job results and aggregate throughput, the shape a
// server's hot path wants instead of a hand-rolled loop of core.Solve
// calls.
//
// Two aspects are shown:
//
//  1. a mixed batch (orders × methods) solved concurrently, reproducible
//     job for job because per-job seeds derive from one master seed;
//  2. cancellation: a deadline stops the whole batch promptly, returning
//     partial per-job results — no run mode is unstoppable.
//
// Run with:
//
//	go run ./examples/batchsolve
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
)

func main() {
	// --- 1. A mixed batch: every order 10–14 with every method.
	var jobs []core.BatchJob
	for _, method := range []string{"adaptive", "tabu", "hillclimb", "dialectic"} {
		for n := 10; n <= 14; n++ {
			jobs = append(jobs, core.BatchJob{Options: core.Options{
				N: n, Method: method, Walkers: 4, Virtual: true,
			}})
		}
	}
	res, err := core.SolveBatch(context.Background(), jobs, core.BatchOptions{MasterSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mixed batch: %d jobs (orders 10–14 × 4 methods), %d solved in %v — %.0f solves/s\n",
		res.Stats.Jobs, res.Stats.Solved, res.Stats.WallTime.Round(time.Millisecond), res.Stats.SolvesPerSec)
	for _, jr := range res.Jobs[:3] {
		fmt.Printf("  job %d: n=%d %s → winner %d after %d iterations\n",
			jr.Job, jobs[jr.Job].Options.N, jobs[jr.Job].Options.Method,
			jr.Result.Winner, jr.Result.Iterations)
	}
	fmt.Println("  ... (deterministic: rerunning with the same master seed reproduces every job)")

	// --- 2. Cancellation: a deadline cuts a hopeless batch short.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	partial, err := core.SolveBatch(ctx, core.BatchCAP([]int{23, 23, 23, 23}, core.Options{Walkers: 4}),
		core.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncancellation: 4 × CAP 23 under a 100ms deadline stopped after %v (%d solved) — every mode honours ctx\n",
		time.Since(start).Round(time.Millisecond), partial.Stats.Solved)
}
