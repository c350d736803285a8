// Package service exposes the solver over HTTP: a long-running JSON API
// that serves any registered model (internal/registry) through the
// facade's solve and batch layers (internal/core). This is the serving
// shape the paper's communication-free multi-walk scheme scales behind —
// stateless requests, independent walkers, no cross-request coupling —
// turned into a deployable front end.
//
// Endpoints:
//
//	POST /v1/solve     one instance; sync by default, async with "async"
//	POST /v1/batch     many instances over the batch engine-pooling layer
//	GET  /v1/jobs/{id} poll an async job
//	GET  /v1/models    the model catalogue (registry entries + options)
//	GET  /healthz      liveness + load counters
//
// With Config.Campaigns set the durable campaign layer (campaigns.go,
// internal/campaign) is mounted under /v1/campaigns: long-running
// checkpointed searches with dynamic worker membership.
//
// Concurrency is bounded by a server-wide worker semaphore: at most
// Config.Workers solves run at once across all requests — a sync or
// async solve occupies one slot, a batch occupies as many slots as its
// inner concurrency, so concurrent batches cannot multiply past the
// bound. The semaphore has two admission classes: freed slots go to
// waiting sync solves (interactive traffic) before async jobs and
// batches, so batch backlogs cannot starve interactive latency. The
// rest queue on their request context, so a client that gives up stops
// waiting server-side too. Every solve runs under the request context
// (sync) or the server's base context (async), optionally tightened by
// the request's timeout_ms — cancellation propagates into the scheduler
// in every run mode, so a deadline stops walkers mid-solve and the
// partial result reports cancelled=true. Shutdown cancels the base
// context — stopping sync and async solves alike at their next probe
// quantum — and drains async jobs.
//
// Serving fast path (DESIGN.md §8): ahead of the semaphore sits a
// deterministic response cache (internal/servecache) keyed by canonical
// spec + explicit seed + result-affecting options — a hit replays the
// recorded response bytes without costing a solver slot — and identical
// concurrent cacheable requests are coalesced into one in-flight solve,
// so a thundering herd on one hard instance occupies one worker, not
// Config.Workers. Admission control (Config.RateLimit) refuses
// per-client request floods with 429 + Retry-After before any of that
// work happens. /metrics exposes the whole fast path: cache hit/miss/
// eviction counters, coalesced and rate-limited totals, and
// per-endpoint latency buckets.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/registry"
	"repro/internal/servecache"
)

// Config tunes the server. The zero value serves with sensible defaults.
type Config struct {
	// Workers bounds how many requests solve concurrently (and the inner
	// concurrency of a batch). 0 means GOMAXPROCS.
	Workers int
	// MaxWalkers caps the per-request walker count (multi-walk width); a
	// request beyond the cap is a client error. 0 means 256.
	MaxWalkers int
	// MaxBatchJobs caps the job count of one batch request. 0 means 1024.
	MaxBatchJobs int
	// DefaultTimeout bounds any request that does not set timeout_ms;
	// 0 means no implicit deadline.
	DefaultTimeout time.Duration
	// Backend routes solves and batches through an execution backend
	// instead of the in-process run layer — the coordinator mode: a
	// solverd configured with a backend.Pool of Remote members fronts a
	// whole fleet behind the same wire format. nil solves in-process.
	// Requests are still validated, admitted and metered here; only the
	// execution moves.
	Backend core.Backend
	// CacheSize bounds the deterministic response cache (entries).
	// Explicit-seed deterministic solves (see servecache.SolveKey for
	// the exact cacheability rule) are cached after completion and
	// replayed byte-identically without occupying a worker slot. 0 means
	// servecache.DefaultCapacity; negative disables caching and
	// coalescing.
	CacheSize int
	// RateLimit enables per-client admission control on POST /v1/solve
	// and POST /v1/batch: each client is granted a token bucket of
	// RateLimit requests per second (depth RateBurst); beyond it,
	// requests are refused with 429 and a Retry-After header. Clients
	// are keyed by the ClientKeyHeader header when present, else by
	// remote address. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket depth; 0 means max(1, 2×RateLimit).
	RateBurst int
	// ClientKeyHeader names the request header identifying a client for
	// rate limiting; "" means "X-Client-Key".
	ClientKeyHeader string
	// MaxQueueDepth sheds load when the worker queue backs up: once the
	// semaphore's wait queue reaches this depth, batch-class work (sync
	// batches, async solves and batches) is refused with 503 +
	// Retry-After, and at 2× the depth interactive sync solves are
	// refused too — an overloaded node answers fast instead of growing
	// an unbounded queue, and /healthz degrades to 503 so a coordinator
	// Pool routes around it. 0 means 16×Workers; negative disables
	// shedding.
	MaxQueueDepth int
	// Campaigns, when non-nil, exposes the durable campaign layer
	// (internal/campaign) under /v1/campaigns: create/status/checkpoint
	// list/cancel for clients, register/heartbeat for workers. nil (the
	// default) leaves the endpoints unregistered — a plain solve node.
	Campaigns *campaign.Coordinator
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxWalkers <= 0 {
		c.MaxWalkers = 256
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 1024
	}
	if c.MaxQueueDepth == 0 {
		c.MaxQueueDepth = 16 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = servecache.DefaultCapacity
	}
	if c.ClientKeyHeader == "" {
		c.ClientKeyHeader = "X-Client-Key"
	}
	return c
}

// OptionsJSON is the wire form of core.Options (instance selection
// excluded — the model spec carries it).
type OptionsJSON struct {
	Method        string   `json:"method,omitempty"`
	Portfolio     []string `json:"portfolio,omitempty"`
	Walkers       int      `json:"walkers,omitempty"`
	Virtual       bool     `json:"virtual,omitempty"`
	Seed          uint64   `json:"seed,omitempty"`
	MaxIterations int64    `json:"max_iterations,omitempty"`
	CheckEvery    int      `json:"check_every,omitempty"`
}

func (o OptionsJSON) toCore() core.Options {
	return core.Options{
		Method:        o.Method,
		Portfolio:     o.Portfolio,
		Walkers:       o.Walkers,
		Virtual:       o.Virtual,
		Seed:          o.Seed,
		MaxIterations: o.MaxIterations,
		CheckEvery:    o.CheckEvery,
	}
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Model is a registry spec: either a grammar string ("costas n=18")
	// or {"name": ..., "params": {...}}.
	Model registry.Spec `json:"model"`
	// Options are the solver options (validated against core.Options).
	Options OptionsJSON `json:"options"`
	// TimeoutMS bounds the solve; expiry cancels walkers mid-run and
	// returns the partial result with cancelled=true.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async enqueues the solve and returns 202 with a job id instead of
	// blocking.
	Async bool `json:"async,omitempty"`
}

// SolveResponse reports one solve outcome.
type SolveResponse struct {
	Model           string  `json:"model"`
	Solved          bool    `json:"solved"`
	Solution        []int   `json:"solution,omitempty"`
	Winner          int     `json:"winner"`
	Iterations      int64   `json:"iterations"`
	TotalIterations int64   `json:"total_iterations"`
	WallMS          float64 `json:"wall_ms"`
	Cancelled       bool    `json:"cancelled"`
	Walkers         int     `json:"walkers"`
}

func solveResponse(model string, res core.Result) SolveResponse {
	return SolveResponse{
		Model:           model,
		Solved:          res.Solved,
		Solution:        res.Array,
		Winner:          res.Winner,
		Iterations:      res.Iterations,
		TotalIterations: res.TotalIterations,
		WallMS:          float64(res.WallTime) / float64(time.Millisecond),
		Cancelled:       res.Cancelled,
		Walkers:         len(res.Stats),
	}
}

// BatchJobRequest is one job of a batch: a model plus its options.
type BatchJobRequest struct {
	Model   registry.Spec `json:"model"`
	Options OptionsJSON   `json:"options"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Jobs []BatchJobRequest `json:"jobs"`
	// MasterSeed decorrelates jobs whose options omit a seed (see
	// core.BatchOptions).
	MasterSeed uint64 `json:"master_seed,omitempty"`
	// Concurrency bounds in-flight jobs; 0 or anything above the server's
	// worker count is clamped to the worker count.
	Concurrency int   `json:"concurrency,omitempty"`
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
	Async       bool  `json:"async,omitempty"`
}

// BatchJobResponse is one job's outcome.
type BatchJobResponse struct {
	Job    int            `json:"job"`
	Error  string         `json:"error,omitempty"`
	Result *SolveResponse `json:"result,omitempty"`
}

// BatchResponse reports a whole batch.
type BatchResponse struct {
	Jobs  []BatchJobResponse `json:"jobs"`
	Stats BatchStatsJSON     `json:"stats"`
}

// BatchStatsJSON is the wire form of core.BatchStats.
type BatchStatsJSON struct {
	Jobs            int     `json:"jobs"`
	Solved          int     `json:"solved"`
	Errors          int     `json:"errors"`
	TotalIterations int64   `json:"total_iterations"`
	WallMS          float64 `json:"wall_ms"`
	SolvesPerSec    float64 `json:"solves_per_sec"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`  // "solve" or "batch"
	State string `json:"state"` // "pending", "running" or "done"
	Error string `json:"error,omitempty"`
	// Solve / Batch hold the result once State is "done".
	Solve *SolveResponse `json:"solve,omitempty"`
	Batch *BatchResponse `json:"batch,omitempty"`
}

// job is the store-side record behind a JobStatus.
type job struct {
	status JobStatus
	seq    int // admission order, for oldest-first eviction
}

// storedJobsCap caps the async job store: finished jobs are evicted
// oldest-first past the cap, and new async work is refused with 429
// when the store is full of unfinished jobs.
const storedJobsCap = 1024

// Server is the HTTP solver service. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sem     *prioSem // worker semaphore (interactive-over-batch priority)
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup // async jobs in flight

	acqMu sync.Mutex // serializes multi-slot (batch) acquisition

	cache   *servecache.Cache // deterministic response cache; nil = disabled
	flights servecache.Group  // in-flight coalescing of identical cacheable solves
	limiter *rateLimiter      // per-client admission control; nil = disabled

	coalesced   atomic.Int64 // requests served by joining another request's flight
	rateLimited atomic.Int64 // requests refused with 429
	shedBatch   atomic.Int64 // batch-class requests refused by queue-depth shedding
	shedInter   atomic.Int64 // interactive requests refused by queue-depth shedding
	latency     map[string]*latencyHist

	mu            sync.Mutex
	jobs          map[string]*job
	maxStoredJobs int // async job store cap; tests lower it
	nextID        int
	inflight      int // requests currently solving (sync + async)
	started       time.Time
	perModel      map[string]int64 // completed solves per model name
	solves        int64            // completed solve operations (batch jobs count singly)
	iterations    int64            // Σ TotalIterations over completed solves
	perMethod     map[string]*methodCounters
}

// methodCounters accumulates per-engine-method work across completed
// solves — the per-method view /metrics publishes and the racing
// allocator's tuning loop observes fleet-wide.
type methodCounters struct {
	iterations int64 // Σ attributed iterations
	restarts   int64 // Σ attributed restarts (incl. racing arm switches)
	solves     int64 // completed solves won by this method
}

// New returns a ready server (no listener — pair Handler with
// http.Server; cmd/solverd does exactly that).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		mux:           http.NewServeMux(),
		sem:           newPrioSem(cfg.Workers),
		baseCtx:       ctx,
		cancel:        cancel,
		jobs:          map[string]*job{},
		maxStoredJobs: storedJobsCap,
		started:       time.Now(),
		perModel:      map[string]int64{},
		perMethod:     map[string]*methodCounters{},
		latency:       map[string]*latencyHist{},
	}
	if cfg.CacheSize > 0 {
		s.cache = servecache.New(cfg.CacheSize)
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	s.mux.HandleFunc("POST /v1/solve", s.instrument("solve", s.handleSolve))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	s.mux.HandleFunc("GET /v1/models", s.instrument("models", s.handleModels))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Campaigns != nil {
		s.registerCampaignRoutes()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops accepting async work, cancels the base context (which
// stops running async solves at their next probe quantum) and waits for
// them to drain, up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown timed out: %w", ctx.Err())
	}
}

// --- request plumbing ---

type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; emitted as a Retry-After header when > 0
}

func (e *httpError) Error() string { return e.msg }

func clientErr(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
		writeJSON(w, he.status, map[string]string{"error": he.msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

// decodeStrict decodes a JSON body rejecting unknown fields and trailing
// garbage — malformed requests are client errors, not silent defaults.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return clientErr("bad request body: %v", err)
	}
	if dec.More() {
		return clientErr("bad request body: trailing data")
	}
	return nil
}

// resolve validates one model+options pair into a registry instance and
// core options. All failures are client errors.
func (s *Server) resolve(spec registry.Spec, o OptionsJSON) (registry.Instance, core.Options, error) {
	inst, err := registry.Default.Build(spec)
	if err != nil {
		return registry.Instance{}, core.Options{}, clientErr("%v", err)
	}
	opts := o.toCore()
	if err := opts.Validate(); err != nil {
		return registry.Instance{}, core.Options{}, clientErr("%v", err)
	}
	if opts.Walkers > s.cfg.MaxWalkers {
		return registry.Instance{}, core.Options{}, clientErr(
			"walkers=%d exceeds the server cap %d", opts.Walkers, s.cfg.MaxWalkers)
	}
	return inst, opts, nil
}

// runCtx derives the execution context for a request: parent (the request
// context for sync work, the server base context for async) tightened by
// the request timeout or the configured default, and additionally
// cancelled by Shutdown — a draining server must stop sync solves at
// their next probe quantum too, not just async ones, or a deadline-less
// sync solve would pin the drain for its whole budget.
func (s *Server) runCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if d <= 0 {
		ctx, cancel = context.WithCancel(parent)
	} else {
		ctx, cancel = context.WithTimeout(parent, d)
	}
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// acquire takes a worker slot, or fails when ctx ends first. Interactive
// acquirers (sync solves) are granted freed slots before batch-class
// ones (async jobs, batches); time spent blocked is surfaced as /metrics
// queue depth.
func (s *Server) acquire(ctx context.Context, interactive bool) error {
	return s.sem.acquire(ctx, interactive)
}

func (s *Server) release() { s.sem.release() }

// acquireN takes n worker slots for a batch (n = its inner concurrency),
// so concurrent batches cannot multiply past the server-wide worker
// bound — always at batch priority. Multi-slot acquisition is serialized
// by acqMu: a batch holding some slots while waiting for more would
// otherwise deadlock against another batch doing the same; single-slot
// acquirers (sync solves) never hold-and-wait, so they bypass the mutex
// safely.
func (s *Server) acquireN(ctx context.Context, n int) error {
	s.acqMu.Lock()
	defer s.acqMu.Unlock()
	for i := 0; i < n; i++ {
		if err := s.acquire(ctx, false); err != nil {
			for ; i > 0; i-- {
				s.release()
			}
			return err
		}
	}
	return nil
}

func (s *Server) releaseN(n int) {
	for i := 0; i < n; i++ {
		s.release()
	}
}

// admit applies per-client admission control (solve/batch endpoints). It
// reports whether the request may proceed; a refused request has already
// been answered with 429 + Retry-After.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter == nil {
		return true
	}
	ok, retry := s.limiter.allow(clientKey(r, s.cfg.ClientKeyHeader))
	if ok {
		return true
	}
	s.rateLimited.Add(1)
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests,
		map[string]string{"error": fmt.Sprintf("rate limit exceeded; retry after %ds", secs)})
	return false
}

// shedding reports whether new work of the given class must be refused
// because the worker queue is saturated. Batch-class work sheds first
// (at MaxQueueDepth); interactive sync solves hold on until 2× — under
// overload the node stays useful for small requests longest.
func (s *Server) shedding(interactive bool) (int, bool) {
	if s.cfg.MaxQueueDepth < 0 {
		return 0, false
	}
	depth := s.sem.depth()
	limit := s.cfg.MaxQueueDepth
	if interactive {
		limit = 2 * limit
	}
	return depth, depth >= limit
}

// shedErr returns the 503 a saturated queue owes one request of the
// given class, or nil when the request may proceed. The error carries
// Retry-After: 1 — transient to backend.Remote, which floors its
// backoff on the header — so shed work lands elsewhere or comes back.
func (s *Server) shedErr(interactive bool) error {
	depth, saturated := s.shedding(interactive)
	if !saturated {
		return nil
	}
	if interactive {
		s.shedInter.Add(1)
	} else {
		s.shedBatch.Add(1)
	}
	return &httpError{
		status:     http.StatusServiceUnavailable,
		msg:        fmt.Sprintf("overloaded: %d requests queued for %d workers", depth, s.cfg.Workers),
		retryAfter: 1,
	}
}

// shed applies queue-depth load shedding at a handler's entry; a false
// return means the 503 is already written and the caller must stop.
func (s *Server) shed(w http.ResponseWriter, interactive bool) bool {
	if err := s.shedErr(interactive); err != nil {
		writeErr(w, err)
		return false
	}
	return true
}

func (s *Server) trackInflight(delta int) {
	s.mu.Lock()
	s.inflight += delta
	s.mu.Unlock()
}

// solveInstance executes one resolved solve, in-process or through the
// configured coordinator backend (core.SolveInstance delegates when
// opts.Backend is set, and verifies the claimed solution either way).
func (s *Server) solveInstance(ctx context.Context, inst registry.Instance, opts core.Options) (core.Result, error) {
	opts.Backend = s.cfg.Backend
	res, err := core.SolveInstance(ctx, inst, opts)
	if err == nil {
		s.recordSolve(inst.Spec.Name, res)
	}
	return res, err
}

// recordSolve feeds the /metrics counters after a completed solve,
// including the per-method attribution core fills for every local run
// (a racing solve attributes windowed deltas per arm; a plain solve
// attributes each walker's lifetime stats to its method).
func (s *Server) recordSolve(model string, res core.Result) {
	s.mu.Lock()
	s.perModel[model]++
	s.solves++
	s.iterations += res.TotalIterations
	for method, st := range res.MethodStats {
		c := s.perMethod[method]
		if c == nil {
			c = &methodCounters{}
			s.perMethod[method] = c
		}
		c.iterations += st.Iterations
		c.restarts += st.Restarts
	}
	if res.Solved && res.WinnerMethod != "" {
		c := s.perMethod[res.WinnerMethod]
		if c == nil {
			c = &methodCounters{}
			s.perMethod[res.WinnerMethod] = c
		}
		c.solves++
	}
	s.mu.Unlock()
}

// --- handlers ---

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req SolveRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	inst, opts, err := s.resolve(req.Model, req.Options)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The fast-path cache key: canonical spec (parameters resolved and
	// alphabetized) + every result-affecting option. Uncacheable
	// requests (implicit seed, real-mode multi-walk race, …) keep the
	// classic path untouched.
	key, cacheable := "", false
	if s.cache != nil {
		key, cacheable = servecache.SolveKey(inst.Spec.String(), opts)
	}

	if req.Async {
		if !s.shed(w, false) { // async solves run at batch priority
			return
		}
		id, err := s.admitJob("solve")
		if err != nil {
			writeErr(w, err)
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if cacheable {
				if body, ok := s.cacheGet(key); ok {
					// Replay the recorded response without occupying a
					// worker slot; the job is done the moment it is polled.
					var sr SolveResponse
					if json.Unmarshal(body, &sr) == nil {
						s.finishJob(id, JobStatus{Solve: &sr}, nil)
						return
					}
				}
			}
			s.runAsync(id, 1, func(ctx context.Context) (JobStatus, error) {
				res, err := s.solveInstance(ctx, inst, opts)
				if err != nil {
					return JobStatus{}, err
				}
				sr := solveResponse(inst.Spec.String(), res)
				if cacheable && servecache.CacheableResult(res) {
					s.cache.Put(key, encodeBody(sr))
				}
				return JobStatus{Solve: &sr}, nil
			}, req.TimeoutMS)
		}()
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "url": "/v1/jobs/" + id})
		return
	}

	if cacheable {
		// Cache hit: replay the recorded bytes — zero worker slots, no
		// semaphore, byte-identical to the solve that populated it.
		if body, ok := s.cacheGet(key); ok {
			writeRawJSON(w, body)
			return
		}
		// Miss: coalesce identical concurrent requests into one flight —
		// a thundering herd on one hard instance occupies one worker.
		// The flight key extends the cache key with the request timeout:
		// requests with different budgets may legitimately end
		// differently, so only true duplicates share a solve.
		flightKey := fmt.Sprintf("%s|t=%d", key, req.TimeoutMS)
		v, err, coalesced := s.flights.Do(r.Context(), flightKey, func(fctx context.Context) (any, error) {
			return s.solveToBytes(fctx, inst, opts, key, req.TimeoutMS)
		})
		if coalesced {
			s.coalesced.Add(1)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Our own ctx fired while waiting on the flight — the
				// client is gone; the flight lives on for its other
				// waiters (or was cancelled with us as the last one).
				err = &httpError{status: http.StatusServiceUnavailable, msg: "request abandoned: " + err.Error()}
			}
			writeErr(w, err)
			return
		}
		writeRawJSON(w, v.([]byte))
		return
	}

	if !s.shed(w, true) {
		return
	}
	ctx, cancel := s.runCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	if err := s.acquire(ctx, true); err != nil {
		writeErr(w, &httpError{status: http.StatusServiceUnavailable, msg: "no worker available: " + err.Error()})
		return
	}
	defer s.release()
	s.trackInflight(1)
	defer s.trackInflight(-1)

	res, err := s.solveInstance(ctx, inst, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse(inst.Spec.String(), res))
}

// solveToBytes is the body of one coalesced flight: take a worker slot
// (interactive class — the flight IS a sync request), solve, encode the
// wire response once, and store it in the cache when the result ran to
// completion. Every waiter of the flight receives the same bytes, so
// coalesced responses are byte-identical by construction.
func (s *Server) solveToBytes(fctx context.Context, inst registry.Instance, opts core.Options, key string, timeoutMS int64) ([]byte, error) {
	// A new flight needs a worker slot, so it sheds like any sync solve;
	// waiters joining an existing flight cost nothing and are never shed.
	if err := s.shedErr(true); err != nil {
		return nil, err
	}
	ctx, cancel := s.runCtx(fctx, timeoutMS)
	defer cancel()
	if err := s.acquire(ctx, true); err != nil {
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "no worker available: " + err.Error()}
	}
	defer s.release()
	s.trackInflight(1)
	defer s.trackInflight(-1)

	res, err := s.solveInstance(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	body := encodeBody(solveResponse(inst.Spec.String(), res))
	if servecache.CacheableResult(res) {
		s.cache.Put(key, body)
	}
	return body, nil
}

// cacheGet fetches a recorded response body.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	v, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	return v.([]byte), true
}

// encodeBody marshals a response exactly as writeJSON's encoder would
// (json.Encoder.Encode is Marshal plus a trailing newline), so cached
// replays are byte-identical to fresh writes.
func encodeBody(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		// SolveResponse contains no unmarshalable types; reaching this
		// is a programming error, surfaced as an empty body by tests.
		return nil
	}
	return append(raw, '\n')
}

// writeRawJSON replays pre-encoded response bytes.
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req BatchRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeErr(w, clientErr("batch has no jobs"))
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		writeErr(w, clientErr("batch of %d jobs exceeds the server cap %d", len(req.Jobs), s.cfg.MaxBatchJobs))
		return
	}

	// Validate every job up front: a batch with an unresolvable spec or
	// bad options is a client error before any work starts (runtime
	// failures inside good jobs still report per job, as in core).
	jobs := make([]core.BatchJob, len(req.Jobs))
	models := make([]string, len(req.Jobs))
	names := make([]string, len(req.Jobs))
	for i, jr := range req.Jobs {
		inst, opts, err := s.resolve(jr.Model, jr.Options)
		if err != nil {
			writeErr(w, clientErr("job %d: %v", i, err))
			return
		}
		// Hand the canonical spec to the batch layer (not the closure):
		// a spec can ship to a backend, a closure cannot.
		jobs[i] = core.BatchJob{Spec: inst.Spec.String(), Options: opts}
		models[i] = inst.Spec.String()
		names[i] = inst.Spec.Name
	}

	conc := req.Concurrency
	if conc <= 0 || conc > s.cfg.Workers {
		conc = s.cfg.Workers
	}
	if conc > len(req.Jobs) {
		conc = len(req.Jobs)
	}
	batchOpts := core.BatchOptions{
		Concurrency: conc,
		MasterSeed:  req.MasterSeed,
		Backend:     s.cfg.Backend, // coordinator mode: the whole batch shards across the fleet
	}

	run := func(ctx context.Context) (BatchResponse, error) {
		res, err := core.SolveBatch(ctx, jobs, batchOpts)
		if err != nil {
			return BatchResponse{}, err
		}
		for i, jr := range res.Jobs {
			if jr.Err == nil {
				s.recordSolve(names[i], jr.Result)
			}
		}
		return batchResponse(models, res), nil
	}

	if !s.shed(w, false) { // batches shed first, sync or async
		return
	}
	if req.Async {
		id, err := s.admitJob("batch")
		if err != nil {
			writeErr(w, err)
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.runAsync(id, conc, func(ctx context.Context) (JobStatus, error) {
				br, err := run(ctx)
				if err != nil {
					return JobStatus{}, err
				}
				return JobStatus{Batch: &br}, nil
			}, req.TimeoutMS)
		}()
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "url": "/v1/jobs/" + id})
		return
	}

	ctx, cancel := s.runCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	if err := s.acquireN(ctx, conc); err != nil {
		writeErr(w, &httpError{status: http.StatusServiceUnavailable, msg: "no worker available: " + err.Error()})
		return
	}
	defer s.releaseN(conc)
	s.trackInflight(1)
	defer s.trackInflight(-1)

	br, err := run(ctx)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, br)
}

func batchResponse(models []string, res core.BatchResult) BatchResponse {
	out := BatchResponse{
		Jobs: make([]BatchJobResponse, len(res.Jobs)),
		Stats: BatchStatsJSON{
			Jobs:            res.Stats.Jobs,
			Solved:          res.Stats.Solved,
			Errors:          res.Stats.Errors,
			TotalIterations: res.Stats.TotalIterations,
			WallMS:          float64(res.Stats.WallTime) / float64(time.Millisecond),
			SolvesPerSec:    res.Stats.SolvesPerSec,
		},
	}
	for i, jr := range res.Jobs {
		bjr := BatchJobResponse{Job: jr.Job}
		if jr.Err != nil {
			bjr.Error = jr.Err.Error()
		}
		if jr.Err == nil || jr.Result.Stats != nil {
			sr := solveResponse(models[i], jr.Result)
			bjr.Result = &sr
		}
		out.Jobs[i] = bjr
	}
	return out
}

// admitJob reserves a job id, refusing when the store cannot take more.
func (s *Server) admitJob(kind string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.evictLocked() {
		// Full means full of *unfinished* jobs; a retrying client should
		// back off rather than give up (backend.Remote treats 429 as
		// transient and honours this header as its backoff floor).
		return "", &httpError{status: http.StatusTooManyRequests, msg: "job store full", retryAfter: 1}
	}
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	s.jobs[id] = &job{status: JobStatus{ID: id, Kind: kind, State: "pending"}, seq: s.nextID}
	return id, nil
}

// evictLocked makes room in the job store, dropping finished jobs
// oldest-first. It reports whether a slot is available.
func (s *Server) evictLocked() bool {
	for len(s.jobs) >= s.maxStoredJobs {
		oldest := ""
		oldestSeq := 0
		for id, j := range s.jobs {
			if j.status.State == "done" && (oldest == "" || j.seq < oldestSeq) {
				oldest, oldestSeq = id, j.seq
			}
		}
		if oldest == "" {
			return false // everything is still pending/running
		}
		delete(s.jobs, oldest)
	}
	return true
}

// runAsync drives one admitted job through the worker pool under the
// server's base context; slots is the worker-slot count the job occupies
// (1 for a solve, the inner concurrency for a batch).
func (s *Server) runAsync(id string, slots int, work func(context.Context) (JobStatus, error), timeoutMS int64) {
	ctx, cancel := s.runCtx(s.baseCtx, timeoutMS)
	defer cancel()
	if err := s.acquireN(ctx, slots); err != nil {
		s.finishJob(id, JobStatus{}, err)
		return
	}
	defer s.releaseN(slots)
	s.trackInflight(1)
	defer s.trackInflight(-1)

	s.setJobState(id, "running")
	st, err := work(ctx)
	s.finishJob(id, st, err)
}

func (s *Server) setJobState(id, state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.status.State = state
	}
}

func (s *Server) finishJob(id string, st JobStatus, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	j.status.State = "done"
	j.status.Solve = st.Solve
	j.status.Batch = st.Batch
	if err != nil {
		j.status.Error = err.Error()
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var snapshot JobStatus
	if ok {
		snapshot = j.status
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, snapshot)
}

// ModelInfo is one catalogue entry of GET /v1/models.
type ModelInfo struct {
	Name        string           `json:"name"`
	Description string           `json:"description"`
	Params      []registry.Param `json:"params"`
	DefaultSpec string           `json:"default_spec"`
}

// ModelsResponse is the GET /v1/models body.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
	// OptionKeys lists the solver option keys of the run-spec grammar
	// (core.ParseRunSpec: the CLI's -model flag, core.BatchJob.Spec).
	// Over HTTP a model spec carries model parameters only; solver
	// options go in the request's "options" object, whose fields mirror
	// these keys.
	OptionKeys []string `json:"option_keys"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var resp ModelsResponse
	for _, e := range registry.Default.All() {
		params := map[string]int{}
		for _, p := range e.Params {
			params[p.Name] = p.Default
		}
		resp.Models = append(resp.Models, ModelInfo{
			Name:        e.Name,
			Description: e.Description,
			Params:      e.Params,
			DefaultSpec: registry.Spec{Name: e.Name, Params: params}.String(),
		})
	}
	resp.OptionKeys = core.OptionKeys()
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics: a flat expvar-style JSON object of
// live load and lifetime counters — what a coordinator's routing, a CI
// smoke check, or a scrape job reads. (A process-global expvar map would
// collide across the many Server instances tests create, so the counters
// are per-server and only the format is expvar's.)
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	perModel := make(map[string]int64, len(s.perModel))
	for name, n := range s.perModel {
		perModel[name] = n
	}
	perMethod := make(map[string]map[string]int64, len(s.perMethod))
	for method, c := range s.perMethod {
		perMethod[method] = map[string]int64{
			"iterations": c.iterations,
			"restarts":   c.restarts,
			"solves":     c.solves,
		}
	}
	inflight := s.inflight
	stored := len(s.jobs)
	solves := s.solves
	iterations := s.iterations
	s.mu.Unlock()
	var cs servecache.Stats
	if s.cache != nil {
		cs = s.cache.Snapshot()
	}
	latency := make(map[string]any, len(s.latency))
	for endpoint, h := range s.latency {
		latency[endpoint] = h.snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"inflight_solves":    inflight,
		"queue_depth":        s.sem.depth(),
		"jobs_store_size":    stored,
		"per_model_solves":   perModel,
		"per_method":         perMethod,
		"racing":             race.Live(),
		"solves_total":       solves,
		"total_iterations":   iterations,
		"workers":            s.cfg.Workers,
		"coordinator":        s.cfg.Backend != nil,
		"campaigns_enabled":  s.cfg.Campaigns != nil,
		"cache_enabled":      s.cache != nil,
		"cache_hits":         cs.Hits,
		"cache_misses":       cs.Misses,
		"cache_evictions":    cs.Evictions,
		"cache_entries":      cs.Entries,
		"coalesced_total":    s.coalesced.Load(),
		"rate_limited_total": s.rateLimited.Load(),
		"max_queue_depth":    s.cfg.MaxQueueDepth,
		"shed_batch_total":   s.shedBatch.Load(),
		"shed_interactive":   s.shedInter.Load(),
		"latency":            latency,
		"uptime_sec":         time.Since(s.started).Seconds(),
	})
}

// handleHealthz answers 200 while the node can take work and degrades
// to 503 (ok:false + reason) once queue-depth shedding is active — a
// coordinator Pool's health probe then steers solves to other members
// instead of feeding a saturated queue.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inflight := s.inflight
	stored := len(s.jobs)
	s.mu.Unlock()
	body := map[string]any{
		"ok":          true,
		"inflight":    inflight,
		"jobs":        stored,
		"queue_depth": s.sem.depth(),
		"workers":     s.cfg.Workers,
		"models":      len(registry.Default.Names()),
		"uptime_sec":  time.Since(s.started).Seconds(),
	}
	status := http.StatusOK
	if depth, saturated := s.shedding(false); saturated {
		body["ok"] = false
		body["reason"] = fmt.Sprintf("worker queue saturated: %d queued for %d workers (shedding)", depth, s.cfg.Workers)
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}
