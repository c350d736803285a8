package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
)

// tiny runs a workload at the smallest op counts.
func tiny(t *testing.T, name string, seed uint64, trace bool) *report {
	t.Helper()
	cfg := config{seed: seed, seconds: 1, trace: trace, dataDir: t.TempDir(), scale: 0.001}
	rep, err := workloads[name].run(cfg)
	if err != nil {
		t.Fatalf("%s (seed %d, trace %t): %v", name, seed, trace, err)
	}
	return rep
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
	if !slices.Equal(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", f.EndToEnd, endToEnd)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", f.PerLayer, perLayer)
	}
}

// measured lists per-layer metrics each workload must report as non-zero:
// proof that its traced wrappers saw the work.
var measured = map[string][]string{
	"multiwalk": {"costas.scan_ns", "costas.scan_calls_per_iter", "adaptive.self_ns_per_iter",
		"walk.rounds_per_op", "core.overhead_ms"},
	"serve-mix": {"service.hit_rtt_p50_ms", "service.miss_rtt_p50_ms", "backend.solve_ms",
		"servecache.hit_ratio", "registry.build_us", "servecache.key_us", "adaptive.iters_share",
		"tabu.iters_share", "hillclimb.iters_share", "dialectic.iters_share",
		"costas.scan_ns", "campaign.epoch_ms", "campaign.epoch_ns_per_iter",
		"campaign.ack_p50_ms", "vfs.sync_p50_ms", "vfs.bytes_per_ack", "campaign.replay_ms", "campaign.resume_ms"},
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			rep := tiny(t, name, 1, trace)
			res, err := assemble(rep, trace)
			if err != nil {
				t.Fatalf("%s trace %t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %t: correct %t, %d of %d failed: %v", name, trace, res.Correct, res.Failed, res.Attempted, rep.notes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %t: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.Name, got.Value)
				}
			}
			if trace {
				for _, m := range measured[name] {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: traced metric %s = %g, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// corruptingBackend swaps two entries of the first solution it returns for
// one of the given seeds.
type corruptingBackend struct {
	core.Backend
	seeds map[uint64]bool
	done  bool
}

func (b *corruptingBackend) SolveSpec(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
	res, err := b.Backend.SolveSpec(ctx, spec, opts)
	if err == nil && !b.done && b.seeds[opts.Seed] && len(res.Array) > 1 {
		res.Array[0], res.Array[1] = res.Array[1], res.Array[0]
		b.done = true
	}
	return res, err
}

func TestInjectedWrongAnswerRaisesFailRatio(t *testing.T) {
	cfg := config{seed: 3, seconds: 1, dataDir: t.TempDir(), scale: 0.001}
	_, ops := serveSchedule(cfg)
	misses := map[uint64]bool{}
	for _, op := range ops {
		if op.hot < 0 {
			misses[op.seed] = true
		}
	}
	rep, err := runServeMix(cfg, func(b core.Backend) core.Backend {
		return &corruptingBackend{Backend: b, seeds: misses}
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := assemble(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 || res.Correct || res.Metrics["ok_ratio"].Value >= 1 {
		t.Errorf("one corrupted array: %d failed, correct %t, ok_ratio %g; want 1 failed", rep.failed, res.Correct, res.Metrics["ok_ratio"].Value)
	}
}

func TestSeedHandling(t *testing.T) {
	for name := range workloads {
		a, b := tiny(t, name, 1, false), tiny(t, name, 1, false)
		c := tiny(t, name, 2, false)
		if a.makespan != b.makespan {
			t.Errorf("%s: seed 1 twice gave makespan %g and %g", name, a.makespan, b.makespan)
		}
		if a.makespan == c.makespan {
			t.Errorf("%s: seeds 1 and 2 gave the same makespan %g", name, a.makespan)
		}
		for m := range a.metrics {
			if _, ok := c.metrics[m]; !ok {
				t.Errorf("%s: seed 2 lacks metric %s", name, m)
			}
		}
		if len(a.metrics) != len(c.metrics) {
			t.Errorf("%s: %d metrics for seed 1, %d for seed 2", name, len(a.metrics), len(c.metrics))
		}
	}
}

func TestTracedRunReproducesUntraced(t *testing.T) {
	for name := range workloads {
		plain, traced := tiny(t, name, 5, false), tiny(t, name, 5, true)
		if traced.failed != 0 {
			t.Errorf("%s: traced run failed %d ops: %v", name, traced.failed, traced.notes)
		}
		if plain.makespan != traced.makespan {
			t.Errorf("%s: untraced makespan %g, traced %g", name, plain.makespan, traced.makespan)
		}
		if share := traced.metrics["unattributed_share"]; share > unattributedTolerance {
			t.Errorf("%s: unattributed share %g over the tolerance", name, share)
		}
	}
}

// The campaign's epochs are fixed work, so its seed shows in the walk:
// the same seed must write the same checkpoints, another seed others.
func TestCampaignSeedHandling(t *testing.T) {
	dir := t.TempDir()
	pass := func(seed uint64) *campaignPass {
		p, err := runCampaignPass(dir, seed, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.failedOps(); n != 0 {
			t.Fatalf("seed %d: %d ops failed: %v", seed, n, p.failures)
		}
		return p
	}
	same := func(a, b *campaignPass) bool {
		for s := range a.ops {
			for k := range a.ops[s] {
				if !sameCheckpoint(a.ops[s][k].cp, b.ops[s][k].cp) {
					return false
				}
			}
		}
		return true
	}
	a, b, c := pass(1), pass(1), pass(2)
	if !same(a, b) {
		t.Error("seed 1 twice wrote different checkpoints")
	}
	if same(a, c) {
		t.Error("seeds 1 and 2 wrote the same checkpoints")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, p, beyond := tail(xs); p != 99 || beyond != 10 {
		t.Errorf("1000 samples: tail at p%g with %d beyond, want p99 with 10", p, beyond)
	}
	if _, p, beyond := tail(xs[:150]); p != 90 || beyond != 15 {
		t.Errorf("150 samples: tail at p%g with %d beyond, want p90 with 15", p, beyond)
	}
}
