// Command solverd serves the solver over HTTP: every model in the
// registry, every search method, sync or async, on a bounded worker pool
// (see internal/service for the API).
//
// Quickstart:
//
//	solverd -addr :8080 &
//	curl -s localhost:8080/v1/models | jq .
//	curl -s -X POST localhost:8080/v1/solve \
//	    -d '{"model": "costas n=18", "options": {"walkers": 4}}' | jq .
//	curl -s -X POST localhost:8080/v1/batch \
//	    -d '{"jobs": [{"model": "costas n=14"}, {"model": "nqueens n=64"}]}' | jq .stats
//	curl -s localhost:8080/metrics | jq .
//
// Coordinator mode — one solverd fronting other solverds: pass worker
// node addresses instead of a worker count and every solve and batch is
// routed through a health-checked backend.Pool (batch sharding with
// work-stealing, distributed first-success multi-walk):
//
//	solverd -addr :8081 &
//	solverd -addr :8082 &
//	solverd -addr :8080 -workers localhost:8081,localhost:8082
//
// Serving fast path (-cache-size, -rate, -burst, -client-header):
// explicit-seed deterministic solves are cached and replayed
// byte-identically without occupying a worker slot, identical concurrent
// solves coalesce into one in-flight run, and per-client token buckets
// refuse floods with 429 + Retry-After. /metrics exposes the cache,
// coalescing and 429 counters plus per-endpoint latency histograms.
//
// Overload + tail latency (-max-queue, -hedge): when more than
// -max-queue requests are already waiting for a worker slot the node
// sheds load with 503 + Retry-After — batch-class work first,
// interactive solves only at twice the limit — and /healthz degrades so
// a fronting coordinator routes around it. In coordinator mode -hedge
// duplicates a single solve to a second worker after that long without
// an answer and takes the first verdict.
//
// Campaign mode (-data, -join) — durable long-running searches that
// survive restarts (internal/campaign):
//
//	solverd -addr :8080 -data /var/lib/solverd        # campaign coordinator (+ local worker)
//	solverd -addr :8081 -join http://host:8080        # extra worker, joins dynamically
//
// A -data node persists campaign state (append-only checkpoint logs
// under the directory) and exposes /v1/campaigns; restarting it resumes
// every running campaign from its last checkpoints. A -join node runs
// no coordinator: it registers with one, heartbeats, and walks whatever
// shards it is leased. -campaign-capacity bounds concurrent shards per
// worker.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, running
// solves are cancelled at their next probe quantum, async jobs drain.
//
// -pprof localhost:6060 serves net/http/pprof on a separate listener
// (never on the API address), so a live server can be profiled with
// `go tool pprof http://localhost:6060/debug/pprof/profile`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only by the -pprof listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/campaign"
	"repro/internal/registry"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.String("workers", "0", "an integer: concurrent solve requests (0 = GOMAXPROCS); or a comma-separated worker node list (host1:8080,host2:8080) to run as a coordinator fronting those solverds")
		maxWalkers = flag.Int("max-walkers", 256, "per-request walker cap")
		maxBatch   = flag.Int("max-batch", 1024, "per-batch job cap")
		timeout    = flag.Duration("timeout", 0, "default per-request solve deadline (0 = none)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (separate listener, e.g. localhost:6060; empty = disabled)")
		cacheSize  = flag.Int("cache-size", 0, "deterministic response cache entries (0 = default, negative = disable caching and coalescing)")
		rate       = flag.Float64("rate", 0, "per-client rate limit on solve/batch in requests/second (0 = unlimited); over the limit replies 429 + Retry-After")
		burst      = flag.Int("burst", 0, "rate-limit token-bucket depth (0 = 2×rate)")
		clientHdr  = flag.String("client-header", "", `request header naming the client for rate limiting (default "X-Client-Key"; clients without it are keyed by remote address)`)
		maxQueue   = flag.Int("max-queue", 0, "shed load when this many requests are queued for a worker slot: batch-class requests get 503 + Retry-After at the limit, interactive solves at 2x (0 = 16x workers, negative = never shed)")
		hedge      = flag.Duration("hedge", 0, "coordinator mode: hedge single solves against slow workers — duplicate the solve to the next member after this long without an answer, first verdict wins (0 = no hedging)")
		dataDir    = flag.String("data", "", "campaign data directory: enables the durable campaign coordinator (/v1/campaigns) backed by append-only logs under this directory, plus an in-process campaign worker")
		joinURL    = flag.String("join", "", "coordinator base URL (e.g. http://host:8080): run as a dynamic campaign worker registered there")
		campCap    = flag.Int("campaign-capacity", 1, "concurrent campaign shards this node walks")
	)
	flag.Parse()
	if *dataDir != "" && *joinURL != "" {
		log.Fatalf("solverd: -data and -join are mutually exclusive (a node is a campaign coordinator or a joining worker, not both)")
	}

	// -workers doubles as the coordinator switch: a plain integer sizes
	// the local worker pool, anything else is the node list to front.
	var (
		workerCount int
		pool        *backend.Pool
	)
	if n, err := strconv.Atoi(*workers); err == nil {
		workerCount = n
	} else {
		var members []backend.Backend
		for _, node := range strings.Split(*workers, ",") {
			node = strings.TrimSpace(node)
			if node == "" {
				continue
			}
			// Fail fast on typos: a worker node is host:port (or a full
			// URL), never a bare word — otherwise a mistyped count like
			// "4x" would boot a cleanly-logging coordinator whose every
			// request fails.
			if !strings.Contains(node, ":") {
				log.Fatalf("solverd: -workers entry %q is neither an integer worker count nor a host:port node address", node)
			}
			members = append(members, backend.NewRemote(node))
		}
		p, err := backend.NewPool(members, backend.PoolConfig{HedgeAfter: *hedge})
		if err != nil {
			log.Fatalf("solverd: -workers %q: %v", *workers, err)
		}
		pool = p
		// A coordinator's request slots gate HTTP fan-out, not local CPU
		// work — size them for the fleet, not for this machine's cores.
		workerCount = 256
	}

	// Profiling sidecar: pprof lives on its own listener so it is never
	// exposed on the API address and perf investigations on a live server
	// need no code edits or restarts with special builds.
	if *pprofAddr != "" {
		go func() {
			log.Printf("solverd: pprof listening on %s (/debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("solverd: pprof listener: %v", err)
			}
		}()
	}

	cfg := service.Config{
		Workers:         workerCount,
		MaxWalkers:      *maxWalkers,
		MaxBatchJobs:    *maxBatch,
		DefaultTimeout:  *timeout,
		CacheSize:       *cacheSize,
		MaxQueueDepth:   *maxQueue,
		RateLimit:       *rate,
		RateBurst:       *burst,
		ClientKeyHeader: *clientHdr,
	}
	if pool != nil {
		cfg.Backend = pool
	}

	// Campaign wiring. A -data node owns the durable store and coordinator
	// and also walks shards itself (in-process worker, no HTTP hop); a
	// -join node only walks, against a remote coordinator.
	var (
		campStore  *campaign.Store
		campWorker *campaign.Worker
	)
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	if *dataDir != "" {
		store, err := campaign.Open(*dataDir)
		if err != nil {
			log.Fatalf("solverd: %v", err)
		}
		campStore = store
		coord, err := campaign.NewCoordinator(campaign.CoordinatorConfig{Store: store})
		if err != nil {
			log.Fatalf("solverd: %v", err)
		}
		cfg.Campaigns = coord
		campWorker, err = campaign.NewWorker(campaign.WorkerConfig{Control: coord, Capacity: *campCap})
		if err != nil {
			log.Fatalf("solverd: %v", err)
		}
		log.Printf("solverd: campaign coordinator on %s (data %s, worker %s ×%d)", *addr, *dataDir, campWorker.ID(), *campCap)
	}
	if *joinURL != "" {
		ctl := campaign.NewHTTPControl(*joinURL, nil)
		var err error
		campWorker, err = campaign.NewWorker(campaign.WorkerConfig{Control: ctl, Capacity: *campCap})
		if err != nil {
			log.Fatalf("solverd: %v", err)
		}
		log.Printf("solverd: campaign worker %s ×%d joining %s", campWorker.ID(), *campCap, *joinURL)
	}
	if campWorker != nil {
		go func() { _ = campWorker.Run(workerCtx) }()
	}

	srv := service.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	go func() {
		if pool != nil {
			log.Printf("solverd: coordinating %s over nodes %s", pool.Name(), *workers)
		}
		log.Printf("solverd: listening on %s (models: %v)", *addr, registry.Names())
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("solverd: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	log.Printf("solverd: %v — draining (budget %v)", sig, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Cancel the service FIRST (concurrently with the HTTP drain): that
	// stops in-flight solves — sync ones included — at their next probe
	// quantum, so their handlers can return and httpSrv.Shutdown's
	// connection drain completes. The reverse order would leave a
	// deadline-less sync solve pinning the drain for its whole budget.
	svcErr := make(chan error, 1)
	go func() { svcErr <- srv.Shutdown(ctx) }()
	// Stop campaign walking before the HTTP drain: shard tasks discard
	// their partial epoch (at most one snapshot interval, by design) and
	// the durable store closes cleanly behind them.
	stopWorker()
	if campStore != nil {
		defer campStore.Close()
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("solverd: http shutdown: %v", err)
	}
	if err := <-svcErr; err != nil {
		log.Printf("solverd: job drain: %v", err)
		os.Exit(1)
	}
	fmt.Println("solverd: bye")
}
