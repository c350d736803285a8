// Command layerbench is the repository's end-to-end benchmark. It drives
// two fixed-seed workloads through the public entry points, checks every
// output, and prints the end-to-end metrics by name with their units:
//
//   - multiwalk: core.Solve, adaptive search on CAP order 16 with 32
//     lockstep virtual walkers, one closed-loop caller;
//   - serve-mix: the service HTTP handler on loopback, two closed-loop
//     clients, about 90 % cache hits and 10 % fresh-seed portfolio solves.
//
// With -trace 1 the same op list runs twice, untraced and then with timing
// wrappers around the calls into each module, and the run prints the
// per-layer metrics instead. The traced pass must reproduce the untraced
// per-op iteration counts exactly, and its layer times must sum back to
// the op wall time within unattributedTolerance. The traced serve-mix run
// also measures the campaign layers: a durable campaign at CAP order 33,
// each op one ShardRunner.RunEpoch plus the coordinator's durable ack of
// its checkpoint.
//
// Usage (from the repository root; the script builds the binary first):
//
//	bash layerbench/run.sh --workload multiwalk --seed 1 --seconds 60 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it record the
// machine and load shape, the tail percentile chosen and its sample count,
// and the fail ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run hands back to main.
type report struct {
	attempted int
	failed    int
	// metrics are the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run) the workload measured; missing per-layer names
	// are layers the workload bypasses and are reported as 0.
	metrics map[string]float64
	// notes are human-readable lines printed before the result line.
	notes []string
	// makespan is makespan_iters, kept in both modes so a traced run can
	// be checked against an untraced one.
	makespan float64
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed op and records why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.note("FAIL: "+format, args...)
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	dataDir string
	// scale multiplies every op count (tests run at a tiny scale).
	scale float64
}

// ops sizes a fixed op list from the run length: perSecond is the op rate
// of the workload on the reference machine, so the list takes about
// cfg.seconds there. The list depends only on the flags, never on the
// machine, so a seed names the same inputs everywhere.
func (c config) ops(perSecond float64, min int) int {
	n := int(perSecond*float64(c.seconds)*c.scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// metricSpec names a metric and its unit, as BENCHMARK.json lists them.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// End-to-end metric units, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"iters_per_s", "1/s"},
	{"makespan_iters", "count"},
	{"ok_ratio", "ratio"},
}

// Per-layer metric units, in BENCHMARK.json order.
var perLayer = []metricSpec{
	{"costas.scan_ns", "ns"},
	{"costas.scan_calls_per_iter", "count"},
	{"adaptive.self_ns_per_iter", "ns"},
	{"adaptive.resets_per_kiter", "count"},
	{"adaptive.restarts_per_kiter", "count"},
	{"walk.wait_share", "ratio"},
	{"walk.rounds_per_op", "count"},
	{"core.overhead_ms", "ms"},
	{"service.hit_rtt_p50_ms", "ms"},
	{"service.miss_rtt_p50_ms", "ms"},
	{"service.miss_rtt_tail_ms", "ms"},
	{"backend.solve_ms", "ms"},
	{"service.miss_overhead_ms", "ms"},
	{"servecache.hit_ratio", "ratio"},
	{"servecache.coalesced", "count"},
	{"service.shed", "count"},
	{"service.rate_limited", "count"},
	{"registry.build_us", "us"},
	{"servecache.key_us", "us"},
	{"adaptive.iters_share", "ratio"},
	{"tabu.iters_share", "ratio"},
	{"hillclimb.iters_share", "ratio"},
	{"dialectic.iters_share", "ratio"},
	{"campaign.epoch_ms", "ms"},
	{"campaign.epoch_ns_per_iter", "ns"},
	{"campaign.ack_p50_ms", "ms"},
	{"campaign.ack_tail_ms", "ms"},
	{"vfs.sync_p50_ms", "ms"},
	{"vfs.sync_tail_ms", "ms"},
	{"vfs.bytes_per_ack", "B"},
	{"campaign.replay_ms", "ms"},
	{"campaign.resume_ms", "ms"},
	{"unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// unattributedTolerance is the largest share of op wall time the traced
// layer spans may leave unexplained before the traced run fails.
const unattributedTolerance = 0.05

// workload is one benchmark workload.
type workload struct {
	// clients is the number of closed-loop callers.
	clients int
	// lockstepThreads is the most engine threads that can step at once.
	lockstepThreads func() int
	run             func(cfg config) (*report, error)
}

var workloads = map[string]workload{
	"multiwalk": {clients: 1, lockstepThreads: multiwalkThreads, run: runMultiwalk},
	"serve-mix": {clients: serveClients, lockstepThreads: serveThreads, run: func(cfg config) (*report, error) { return runServeMix(cfg, nil) }},
}

// shape is the machine and load shape recorded with every result.
type shape struct {
	Workload        string `json:"workload"`
	CPU             string `json:"cpu"`
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GOAMD64         string `json:"goamd64"`
	GoVersion       string `json:"go_version"`
	Clients         int    `json:"clients"`
	LockstepThreads int    `json:"lockstep_threads"`
}

func machineShape(name string, w workload) shape {
	s := shape{
		Workload:        name,
		CPU:             cpuModel(),
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Clients:         w.clients,
		LockstepThreads: w.lockstepThreads(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "GOAMD64" {
				s.GOAMD64 = kv.Value
			}
		}
	}
	if s.GOAMD64 == "" {
		s.GOAMD64 = "unset"
	}
	return s
}

// cpuModel reads the processor name; the benchmark runs without it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's total and stolen CPU ticks; a virtual
// machine whose host is busy loses time to steal, which slows every
// workload alike. ok is false where /proc/stat is unavailable.
func cpuTicks() (total, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return total, steal, true
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// assemble turns a report into the result line: every end-to-end metric
// (untraced) or every per-layer metric (traced), with its unit.
func assemble(rep *report, trace bool) (result, error) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	known := make(map[string]bool, len(names))
	for _, m := range names {
		known[m.Name] = true
		res.Metrics[m.Name] = metric{Value: rep.metrics[m.Name], Unit: m.Unit}
	}
	for name := range rep.metrics {
		if !known[name] {
			return result{}, fmt.Errorf("workload reported unknown metric %q", name)
		}
	}
	if !trace {
		for _, m := range names {
			if _, ok := rep.metrics[m.Name]; !ok {
				return result{}, fmt.Errorf("workload did not report %q", m.Name)
			}
		}
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload: multiwalk or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 60, "run length the op lists are sized for")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	data := flag.String("data", ".bench_build/layerbench-data", "scratch directory for the traced run's campaign store")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "layerbench: bad flags (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	sh := machineShape(*name, w)
	if sh.LockstepThreads > sh.NProc {
		fmt.Fprintf(os.Stderr, "layerbench: refusing to run: %d lockstep threads on %d processors would oversubscribe the machine\n",
			sh.LockstepThreads, sh.NProc)
		os.Exit(2)
	}
	shapeJSON, _ := json.Marshal(sh) // plain struct of strings and ints
	fmt.Printf("layerbench: shape %s\n", shapeJSON)

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dataDir: *data, scale: 1}
	total0, steal0, ticksOK := cpuTicks()
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := assemble(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, line := range rep.notes {
		fmt.Printf("layerbench: %s\n", line)
	}
	if total1, steal1, ok := cpuTicks(); ok && ticksOK && total1 > total0 {
		fmt.Printf("layerbench: cpu steal %.4f of machine time during the run\n", float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Printf("layerbench: fail_ratio %g (%d of %d ops)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
