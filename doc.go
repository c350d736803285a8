// Package repro is a from-scratch Go reproduction of "Parallel local search
// for the Costas Array Problem" (Diaz, Richoux, Caniou, Codognet, Abreu —
// IPDPS Workshops 2012).
//
// The library implements the Adaptive Search constraint-based local search
// method, the paper's Costas Array Problem model (difference triangle,
// weighted error functions, Chang bound, dedicated reset), the independent
// multi-walk parallel scheme with first-solution termination, baselines
// (Dialectic Search, tabu search, hill climbing, a complete CP solver),
// the classical Welch and Lempel–Golomb algebraic constructions over
// finite fields, and the statistical apparatus (run aggregation,
// time-to-target plots with shifted-exponential fits) needed to regenerate
// every table and figure of the paper's evaluation.
//
// All four local-search methods implement one engine interface
// (csp.Engine) with resumable quantum-stepped execution, so the multi-walk
// runner (internal/walk) and the facade (internal/core) are
// method-agnostic: core.Options.Method selects adaptive, tabu, hillclimb,
// dialectic — or "portfolio" to mix methods across the walkers of one run
// — and core.SolveModel drives any csp.Model (N-Queens, All-Interval,
// Magic Square, or your own) through the same machinery.
//
// All run modes share one cancellable scheduler core
// (internal/walk/scheduler.go) parameterised by execution mode (real
// goroutines vs lockstep virtual time); on top of it, core.SolveBatch is
// the throughput layer — many instances solved concurrently over a
// bounded worker pool.
//
// Above the facade sits the serving stack: internal/registry names every
// model behind declarative specs ("costas n=18", "nqueens n=64
// method=tabu") with per-entry validation and catalogue metadata, and
// internal/service exposes solve/batch/jobs/models/healthz/metrics over
// HTTP on a bounded worker pool with an async job store.
//
// Where a solve runs is itself pluggable (internal/backend): Local (in
// process), Remote (a solverd node over HTTP) or Pool (a health-checked
// fleet with sharded batches and distributed first-success multi-walk —
// the paper's cluster-scale scheme with machines in place of cores),
// selected through core.Options.Backend; a solverd can front other
// solverds as a coordinator (solverd -workers host1,host2).
//
// Entry points:
//
//   - internal/core — the solving facade (see examples/quickstart);
//   - cmd/costas — CLI solver (-method selects the search method,
//     -model solves any registry spec, -addr submits to a cluster);
//   - cmd/solverd — the HTTP solver daemon (internal/service), worker
//     node or fleet coordinator (internal/backend);
//   - cmd/enumerate — exhaustive enumeration with published-count oracles;
//   - cmd/paperbench — regenerates Tables I–V and Figures 2–4;
//   - bench_test.go (this directory) — testing.B benchmarks, one per
//     table/figure, plus the §IV-B ablations.
//
// See README.md for a tour and DESIGN.md for the system inventory; the
// measured-vs-paper results are cmd/paperbench's output (every experiment
// prints both), indexed in DESIGN.md §3.
package repro
