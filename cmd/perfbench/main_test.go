package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestRunAllSmoke runs the full suite at one iteration per benchmark: every
// benchmark must execute, report sane numbers, and the steady-state set
// must be allocation-free (the property `perfbench -smoke` gates CI on).
func TestRunAllSmoke(t *testing.T) {
	testing.Init()
	results, err := runAll("1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 6 {
		t.Fatalf("suite shrank: %d benchmarks", len(results))
	}
	if _, err := runAll("not-a-benchtime"); err == nil {
		t.Error("runAll accepted an unparseable benchtime")
	}
	seen := map[string]bool{}
	steady := 0
	for _, r := range results {
		if seen[r.Name] {
			t.Fatalf("duplicate benchmark name %q", r.Name)
		}
		seen[r.Name] = true
		if r.NsOp <= 0 {
			t.Errorf("%s: non-positive ns/op %v", r.Name, r.NsOp)
		}
		if r.SteadyState {
			steady++
			if r.AllocsOp > 0 {
				t.Errorf("%s: steady-state benchmark allocates %d allocs/op", r.Name, r.AllocsOp)
			}
		}
	}
	for _, name := range []string{
		"kernel/swap_delta_n18", "kernel/scan_swaps_n18", "kernel/scan_suffixes_n18",
		"kernel/scan_swaps_n96", "kernel/cost_of_n18",
		"engine/adaptive_steady_n18", "engine/tabu_steady_n18", "engine/dialectic_steady_n18",
		"engine/hillclimb_steady_n18",
		"table1/sequential_n13",
	} {
		if !seen[name] {
			t.Errorf("benchmark %q missing from suite", name)
		}
	}
	if steady == 0 {
		t.Error("no steady-state benchmarks: the -smoke allocation gate is vacuous")
	}
}

// TestMachineIdentity: where /proc/cpuinfo names the CPU, the header's
// cpu_model carries it.
func TestMachineIdentity(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || !strings.Contains(string(raw), "model name") {
		t.Skip("no CPU model name on this platform")
	}
	if m := cpuModel(); m == "" || !strings.Contains(string(raw), m) {
		t.Errorf("cpuModel() = %q, not a model name from /proc/cpuinfo", m)
	}
}

// TestMergeBaseline checks speedup wiring against a synthetic baseline.
func TestMergeBaseline(t *testing.T) {
	results := []Result{{Name: "a", NsOp: 50}, {Name: "b", NsOp: 10}}
	raw := []byte(`{"schema":"bench_costas/v1","benchmarks":[{"name":"a","ns_op":100}]}`)
	var base File
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	mergeBaseline(results, &base)
	if results[0].BaselineNsOp != 100 || results[0].Speedup != 2 {
		t.Errorf("a: baseline %v speedup %v, want 100 / 2.0", results[0].BaselineNsOp, results[0].Speedup)
	}
	if results[1].BaselineNsOp != 0 || results[1].Speedup != 0 {
		t.Errorf("b: unexpected baseline fields %+v", results[1])
	}
}
