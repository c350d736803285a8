package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/registry"
	"repro/internal/servecache"
	"repro/internal/service"
)

// The serve-mix workload drives a loopback service in its production
// default configuration, except Workers: 1, which keeps the lockstep
// threads of concurrent solves at GOMAXPROCS. Two closed-loop clients
// follow a seeded schedule: nine requests in ten repeat a small
// hot set of explicit-seed requests (cache hits: decode, servecache key
// and LRU read, byte replay); the rest use fresh seeds (misses:
// admission, registry build, the portfolio solve, a cache insert). Its
// traced run also measures the campaign layers (see traceCampaign).
const (
	serveModel   = "costas n=14"
	serveOrder   = 14
	serveMethod  = "portfolio"
	serveWalkers = 8
	serveClients = 2
	serveWorkers = 1
	// serveHot is the hot-set size; serveMissEvery makes every tenth
	// request a miss.
	serveHot       = 48
	serveMissEvery = 10
	// servePerSecond sizes the request list per second of run length. It
	// is about a third of the request rate of the reference machine (2
	// cores): at a 60 s run the list stays under 10,000 requests, so the
	// tail is p99 with about 100 samples beyond it. A longer list moves the
	// tail to p99.9 with under 20 beyond, which spread 23 % over ten seeds.
	servePerSecond = 160
	serveSetups    = 3
)

func serveThreads() int {
	return min(serveClients, serveWorkers) * min(runtime.GOMAXPROCS(0), serveWalkers)
}

func serveRequest(seed uint64) []byte {
	body, _ := json.Marshal(service.SolveRequest{ // plain struct, cannot fail
		Model:   registry.Spec{Name: "costas", Params: map[string]int{"n": serveOrder}},
		Options: service.OptionsJSON{Method: serveMethod, Walkers: serveWalkers, Virtual: true, Seed: seed},
	})
	return body
}

// serveOp is one scheduled request: a hot-set index, or -1 for a miss.
type serveOp struct {
	hot  int
	seed uint64
}

// serveSchedule draws the hot set and the request list from the seed:
// exactly one request in serveMissEvery is a miss, at seeded positions.
func serveSchedule(cfg config) (hot []uint64, ops []serveOp) {
	r := seedStream(cfg.seed, 2)
	n := cfg.ops(servePerSecond, 2*serveMissEvery)
	hotN := min(serveHot, max(2, n/serveMissEvery))
	hot = distinctSeeds(r, hotN, nil)
	avoid := make(map[uint64]bool, len(hot))
	for _, s := range hot {
		avoid[s] = true
	}
	misses := distinctSeeds(r, n/serveMissEvery, avoid)
	ops = make([]serveOp, n)
	for i := range ops {
		if i < len(misses) {
			ops[i] = serveOp{hot: -1, seed: misses[i]}
		} else {
			h := r.IntN(len(hot))
			ops[i] = serveOp{hot: h, seed: hot[h]}
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return hot, ops
}

// liveServer is a service on a loopback listener.
type liveServer struct {
	srv    *service.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer(cfg service.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{
		srv:  service.New(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{
			// A solve takes milliseconds; a request still open after a
			// minute is a hang, and the run must end well inside its limit.
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: serveClients,
				DisableCompression:  true,
			},
		},
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.http.Shutdown(ctx) // a drain failure still ends with Serve returning
	_ = s.srv.Shutdown(ctx)
	<-s.done
}

// post sends one solve request and returns the status and body.
func (s *liveServer) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// serveMetrics is the part of /metrics the traced run reads.
type serveMetrics struct {
	CacheHits   int64                       `json:"cache_hits"`
	CacheMisses int64                       `json:"cache_misses"`
	Coalesced   int64                       `json:"coalesced_total"`
	RateLimited int64                       `json:"rate_limited_total"`
	ShedBatch   int64                       `json:"shed_batch_total"`
	ShedInter   int64                       `json:"shed_interactive"`
	PerMethod   map[string]map[string]int64 `json:"per_method"`
}

func (s *liveServer) metrics() (serveMetrics, error) {
	var m serveMetrics
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// verifiedSolve decodes a response and checks its array.
func verifiedSolve(status int, body []byte) (service.SolveResponse, bool) {
	var sr service.SolveResponse
	if status != http.StatusOK || json.Unmarshal(body, &sr) != nil {
		return sr, false
	}
	return sr, sr.Solved && len(sr.Solution) == serveOrder && costas.IsCostas(sr.Solution)
}

// servePass is one pass over the request list.
type servePass struct {
	setup    []float64 // seconds per repeated set-up
	wall     time.Duration
	rtt      []time.Duration
	iters    []int64 // winner iterations per request
	total    []int64 // total iterations per miss (0 for hits)
	failures []string
	before   serveMetrics
	after    serveMetrics
}

// runServePass starts a server setups times (keeping the last one), warms
// the hot set, then plays the request list from serveClients closed-loop
// clients. wrap, when non-nil, installs a backend around backend.NewLocal.
func runServePass(hot []uint64, ops []serveOp, setups int, wrap func(core.Backend) core.Backend) (*servePass, error) {
	p := &servePass{
		rtt:   make([]time.Duration, len(ops)),
		iters: make([]int64, len(ops)),
		total: make([]int64, len(ops)),
	}
	scfg := service.Config{Workers: serveWorkers}
	if wrap != nil {
		scfg.Backend = wrap(backend.NewLocal())
	}
	var srv *liveServer
	warm := make([][]byte, len(hot))
	warmIters := make([]int64, len(hot))
	for k := 0; k < setups; k++ {
		if srv != nil {
			srv.close()
		}
		t := time.Now()
		var err error
		if srv, err = startServer(scfg); err != nil {
			return nil, err
		}
		for h, seed := range hot {
			status, body, err := srv.post(serveRequest(seed))
			if err != nil {
				srv.close()
				return nil, fmt.Errorf("warm hot request %d: %w", h, err)
			}
			sr, ok := verifiedSolve(status, body)
			if !ok {
				srv.close()
				return nil, fmt.Errorf("warm hot request %d: status %d, body %s", h, status, body)
			}
			warm[h], warmIters[h] = body, sr.Iterations
		}
		p.setup = append(p.setup, time.Since(t).Seconds())
	}
	defer srv.close()

	var err error
	if p.before, err = srv.metrics(); err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op := ops[i]
				body := serveRequest(op.seed)
				t := time.Now()
				status, resp, err := srv.post(body)
				p.rtt[i] = time.Since(t)
				var why string
				switch {
				case err != nil:
					why = err.Error()
				case op.hot >= 0:
					if status == http.StatusOK && bytes.Equal(resp, warm[op.hot]) {
						p.iters[i] = warmIters[op.hot]
					} else {
						why = fmt.Sprintf("hit differs from the first response for its key: status %d, body %s", status, resp)
					}
				default:
					sr, ok := verifiedSolve(status, resp)
					p.iters[i], p.total[i] = sr.Iterations, sr.TotalIterations
					if !ok {
						why = fmt.Sprintf("miss not a verified Costas array: status %d, body %s", status, resp)
					}
				}
				if why != "" {
					mu.Lock()
					p.failures = append(p.failures, fmt.Sprintf("request %d (seed %d): %s", i, op.seed, why))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	if p.after, err = srv.metrics(); err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	return p, nil
}

// runServeMix runs the workload; inject, when non-nil, wraps the backend
// of the untraced pass (the tests use it to plant a wrong answer).
func runServeMix(cfg config, inject func(core.Backend) core.Backend) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	hot, ops := serveSchedule(cfg)
	plain, err := runServePass(hot, ops, serveSetups, inject)
	if err != nil {
		return nil, err
	}
	rep.attempted = len(ops)
	for _, f := range plain.failures {
		rep.fail("%s", f)
	}

	lat := msAll(plain.rtt)
	var missIters, total float64
	misses := 0
	for i, op := range ops {
		if op.hot < 0 {
			misses++
			missIters += float64(plain.iters[i])
			total += float64(plain.total[i])
		}
	}
	// A hit replays a stored answer and searches nothing, so the makespan
	// is the mean over the requests that ran a solve.
	rep.makespan = missIters / float64(misses)
	if !cfg.trace {
		m := rep.metrics
		m["setup_s"] = median(plain.setup)
		m["p50_ms"] = median(lat)
		m["tail_ms"], _, _ = tail(lat)
		m["ops_per_s"] = float64(len(ops)) / plain.wall.Seconds()
		m["iters_per_s"] = total / plain.wall.Seconds()
		m["makespan_iters"] = rep.makespan
		m["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
		rep.note("%s", tailNote("serve-mix tail_ms", lat))
		rep.note("serve-mix %d requests: %d misses, %d hot keys, %d clients, Workers %d", len(ops), misses, len(hot), serveClients, serveWorkers)
		return rep, nil
	}
	if err := traceServeMix(rep, hot, ops, plain); err != nil {
		return nil, err
	}
	return rep, traceCampaign(rep, cfg)
}

func traceServeMix(rep *report, hot []uint64, ops []serveOp, plain *servePass) error {
	var tb *timedBackend
	traced, err := runServePass(hot, ops, 1, func(b core.Backend) core.Backend {
		tb = newTimedBackend(b)
		return tb
	})
	if err != nil {
		return err
	}
	rep.attempted += len(ops)
	for _, f := range traced.failures {
		rep.fail("traced %s", f)
	}
	solve := tb.take() // by seed; only misses are looked up, so warm-up solves drop out

	var hitRTT, missRTT []float64
	var missSum, solveSum, negative time.Duration
	for i, op := range ops {
		if traced.iters[i] != plain.iters[i] || traced.total[i] != plain.total[i] {
			rep.fail("traced request %d (seed %d) walked %d/%d iterations, untraced %d/%d",
				i, op.seed, traced.iters[i], traced.total[i], plain.iters[i], plain.total[i])
		}
		if op.hot >= 0 {
			hitRTT = append(hitRTT, ms(traced.rtt[i]))
			continue
		}
		missRTT = append(missRTT, ms(traced.rtt[i]))
		d := solve[op.seed]
		missSum += traced.rtt[i]
		solveSum += d
		if d > traced.rtt[i] {
			negative += d - traced.rtt[i] // a solve cannot outlast its request
		}
	}
	misses := float64(len(missRTT))

	// Spec and key cost on the workload's own inputs.
	const builds = 2000
	t := time.Now()
	for k := 0; k < builds; k++ {
		if _, err := registry.BuildSpec(serveModel); err != nil {
			return err
		}
	}
	buildUS := float64(time.Since(t)) / float64(time.Microsecond) / builds
	inst, err := registry.BuildSpec(serveModel)
	if err != nil {
		return err
	}
	canonical := inst.Spec.String()
	t = time.Now()
	for _, op := range ops {
		if _, ok := servecache.SolveKey(canonical, core.Options{Method: serveMethod, Walkers: serveWalkers, Virtual: true, Seed: op.seed}); !ok {
			return fmt.Errorf("request seed %d is not cacheable", op.seed)
		}
	}
	keyUS := float64(time.Since(t)) / float64(time.Microsecond) / float64(len(ops))

	b, a := traced.before, traced.after
	hits, missed := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	methodIters := map[string]float64{}
	var allIters float64
	for method, c := range a.PerMethod {
		d := float64(c["iterations"] - b.PerMethod[method]["iterations"])
		methodIters[method] = d
		allIters += d
	}

	m := rep.metrics
	m["service.hit_rtt_p50_ms"] = median(hitRTT)
	m["service.miss_rtt_p50_ms"] = median(missRTT)
	m["service.miss_rtt_tail_ms"], _, _ = tail(missRTT)
	m["backend.solve_ms"] = ms(solveSum) / misses
	m["service.miss_overhead_ms"] = ms(missSum-solveSum) / misses
	m["servecache.hit_ratio"] = float64(hits) / float64(hits+missed)
	m["servecache.coalesced"] = float64(a.Coalesced - b.Coalesced)
	m["service.shed"] = float64(a.ShedBatch + a.ShedInter - b.ShedBatch - b.ShedInter)
	m["service.rate_limited"] = float64(a.RateLimited - b.RateLimited)
	m["registry.build_us"] = buildUS
	m["servecache.key_us"] = keyUS
	for _, method := range []string{"adaptive", "tabu", "hillclimb", "dialectic"} {
		m[method+".iters_share"] = methodIters[method] / allIters
	}
	m["unattributed_share"] = float64(negative) / float64(missSum)
	m["trace.overhead_share"] = traced.wall.Seconds()/plain.wall.Seconds() - 1

	rep.note("serve-mix miss layers per request: backend solve %.4f ms + service overhead %.4f ms = %.4f ms RTT",
		ms(solveSum)/misses, ms(missSum-solveSum)/misses, ms(missSum)/misses)
	rep.note("%s", tailNote("serve-mix service.miss_rtt_tail_ms", missRTT))
	if share := m["unattributed_share"]; share > unattributedTolerance {
		rep.fail("serve-mix backend spans outlast their requests by %.4f of miss RTT (tolerance %g)", share, unattributedTolerance)
	}
	return nil
}
