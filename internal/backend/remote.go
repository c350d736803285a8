package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/service"
)

// Remote submits solves to a solverd node over its /v1 HTTP wire format
// (internal/service owns the request/response types, so client and
// server cannot drift). It maps transport and protocol failures into
// errors a Pool can route on, retries transient failures (network
// errors, 502/503/504, and 429 — honoring the server's Retry-After as
// the backoff floor) with exponential backoff, and propagates the
// caller's context deadline onto the wire as timeout_ms — slightly
// shortened so the server cancels its walkers and returns the partial
// cancelled result before the client's own deadline slams the
// connection shut.
//
// Determinism: a solverd node executes a run spec through the same
// registry route a Local backend takes, so virtual-mode and sequential
// solves with explicit seeds return bit-identical arrays and iteration
// counts from either. Per-walker engine Stats do not travel over the
// wire; remote results carry synthesized Stats (correct length, winner's
// iteration count only).
type Remote struct {
	base    string
	client  *http.Client  // dedicated to this backend; tests swap in a fault-injecting transport
	retries int           // transient failures retried on top of the first attempt
	backoff time.Duration // initial retry backoff, doubled per attempt

	mu       sync.Mutex
	capacity int // learned from /healthz "workers"; 0 until first probe
}

const (
	// remoteRetries is how many times a transient failure is retried.
	// Solves are safe to retry: a run spec plus explicit seeds is
	// idempotent, and derived-seed real-mode runs are statistically
	// equivalent.
	remoteRetries = 2
	// remoteBackoff is the initial retry backoff.
	remoteBackoff = 50 * time.Millisecond
	// remoteIdleConns is the idle-connection pool of a Remote's client,
	// sized for coordinator fan-in: enough for a member's whole capacity
	// to be in flight without re-dialing.
	remoteIdleConns = 64
)

// NewRemote returns a Remote backend for a solverd node at addr
// ("host:8080" or a full "http://host:8080" base URL). Its capacity hint
// is learned from the node's /healthz "workers" field on the first
// health probe.
func NewRemote(addr string) *Remote {
	base := strings.TrimSuffix(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Remote{base: base, client: newRemoteClient(), retries: remoteRetries, backoff: remoteBackoff}
}

// newRemoteClient builds the per-backend HTTP client: a dedicated
// transport (never http.DefaultClient, whose global connection pool does
// not belong to this backend) whose idle pool lets a coordinator pushing
// capacity-wide concurrency reuse connections instead of re-dialing per
// request — at high QPS the dial+handshake is otherwise the dominant
// cost and burns ephemeral ports — with an idle timeout short enough to
// shed connections when traffic moves away. A Remote talks to exactly
// one host, so the per-host and total idle limits coincide.
func newRemoteClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConns:        remoteIdleConns,
			MaxIdleConnsPerHost: remoteIdleConns,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// equalJitter draws the random part of each retry wait: the actual
// pause is backoff/2 plus equalJitter(backoff/2) — "equal jitter", so a
// fleet of coordinators tripped by the same member outage spreads its
// retries across half the backoff window instead of stampeding back in
// lockstep. The server's Retry-After hint remains the floor regardless
// of the draw.
func equalJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(max) + 1))
}

func (r *Remote) Name() string { return "remote(" + r.base + ")" }

// Capacity reports the node's advertised worker count once a health
// probe has run, or 1 before that.
func (r *Remote) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.capacity > 0 {
		return r.capacity
	}
	return 1
}

// Healthy probes /healthz and refreshes the capacity hint from the
// node's advertised worker count.
func (r *Remote) Healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return &RemoteError{Backend: r.Name(), Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &RemoteError{Backend: r.Name(), Status: resp.StatusCode, Err: fmt.Errorf("healthz status %d", resp.StatusCode)}
	}
	var h struct {
		OK      bool `json:"ok"`
		Workers int  `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || !h.OK {
		return &RemoteError{Backend: r.Name(), Err: fmt.Errorf("bad healthz body (ok=%v, err=%v)", h.OK, err)}
	}
	if h.Workers > 0 {
		r.mu.Lock()
		r.capacity = h.Workers
		r.mu.Unlock()
	}
	return nil
}

// RemoteError is a failed call against a solverd node: a transport
// failure (Status 0) or a non-2xx protocol reply. Transient returns
// whether retrying elsewhere could help — Pool requeues jobs on it.
type RemoteError struct {
	Backend string
	Status  int // HTTP status; 0 for transport failures
	Err     error
	// RetryAfter is the server's Retry-After hint (0 when absent): how
	// long the node asked to be left alone before the next attempt. The
	// retry loop uses it as the backoff floor — a 429 from admission
	// control or a full job store comes with exactly this hint.
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("backend: %s: status %d: %v", e.Backend, e.Status, e.Err)
	}
	return fmt.Sprintf("backend: %s: %v", e.Backend, e.Err)
}

func (e *RemoteError) Unwrap() error { return e.Err }

// Transient reports whether the failure is worth retrying: network
// errors, gateway/overload statuses, and 429 — a rate-limited or
// job-store-full node is merely busy, not broken, and refusing to retry
// it would abandon work a few hundred milliseconds of patience completes
// (the server says how much patience via Retry-After). Other client
// errors (4xx) and plain internal errors are deterministic — retrying
// re-earns the same reply.
func (e *RemoteError) Transient() bool {
	switch e.Status {
	case 0:
		// Transport failure — but a cancelled/expired context is the
		// caller's own stop signal, not a node fault.
		return !errors.Is(e.Err, context.Canceled) && !errors.Is(e.Err, context.DeadlineExceeded)
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusTooManyRequests:
		return true
	}
	return false
}

// wireTimeoutMS converts ctx's remaining budget into the request's
// timeout_ms: 90% of the remainder, so the server-side cancellation
// (which returns a well-formed partial result) wins the race against the
// client-side connection teardown. A deadline that already passed (or is
// about to — under a millisecond left) is a failed call the wire cannot
// save: the error returns immediately instead of clamping the budget to
// 1ms and burning a round-trip that cannot succeed.
func wireTimeoutMS(ctx context.Context) (int64, error) {
	d, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	remaining := time.Until(d)
	ms := int64(remaining-remaining/10) / int64(time.Millisecond)
	if ms < 1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, context.DeadlineExceeded
	}
	return ms, nil
}

// post sends one JSON request and decodes the 200 reply into out.
func (r *Remote) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return &RemoteError{Backend: r.Name(), Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return &RemoteError{Backend: r.Name(), Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &RemoteError{
			Backend:    r.Name(),
			Status:     resp.StatusCode,
			Err:        errors.New(msg),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return &RemoteError{Backend: r.Name(), Err: fmt.Errorf("bad response body: %w", err)}
	}
	return nil
}

// parseRetryAfter decodes a Retry-After header value. Only the
// delta-seconds form is produced by this repository's servers
// (service.admit, the job-store-full refusal); an HTTP-date or garbage
// value degrades to 0 — no hint.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryWait resolves the pause before the next attempt: the exponential
// backoff — jittered into [backoff/2, backoff] when a jitter source is
// given, so synchronized clients desynchronize — floored by the
// server's Retry-After hint when the failure carried one: retrying a
// rate-limited node before the interval it asked for just earns
// another 429 and burns an attempt.
func retryWait(backoff time.Duration, err error, jitter func(time.Duration) time.Duration) time.Duration {
	wait := backoff
	if jitter != nil && backoff > 0 {
		wait = backoff/2 + jitter(backoff/2)
	}
	var re *RemoteError
	if errors.As(err, &re) && re.RetryAfter > wait {
		return re.RetryAfter
	}
	return wait
}

// call is post with the retry policy: transient failures back off
// exponentially (floored by the server's Retry-After, when given) and
// retry while ctx is still live.
func (r *Remote) call(ctx context.Context, path string, body, out any) error {
	backoff := r.backoff
	for attempt := 0; ; attempt++ {
		err := r.post(ctx, path, body, out)
		if err == nil {
			return nil
		}
		var re *RemoteError
		if !errors.As(err, &re) || !re.Transient() || attempt >= r.retries {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(retryWait(backoff, err, equalJitter)):
		}
		backoff *= 2
	}
}

// wireOptions converts core options to the wire form, rejecting
// process-local knobs that do not serialize: silently dropping a custom
// Params set would solve a different configuration than asked.
func wireOptions(opts core.Options) (service.OptionsJSON, error) {
	if opts.Params != nil {
		return service.OptionsJSON{}, fmt.Errorf("backend: custom adaptive params cannot route to a remote backend (the node applies its registry's tuned params)")
	}
	return service.OptionsJSON{
		Method:        opts.Method,
		Portfolio:     opts.Portfolio,
		Walkers:       opts.Walkers,
		Virtual:       opts.Virtual,
		Seed:          opts.Seed,
		MaxIterations: opts.MaxIterations,
		CheckEvery:    opts.CheckEvery,
	}, nil
}

// resultFromWire maps a wire solve response onto core.Result. Stats are
// synthesized: the wire carries the walker count and the winner's
// iteration total, not per-walker engine counters.
func resultFromWire(sr service.SolveResponse) core.Result {
	stats := make([]csp.Stats, sr.Walkers)
	winner := sr.Winner
	if winner >= len(stats) {
		winner = -1
	}
	if winner >= 0 {
		stats[winner].Iterations = sr.Iterations
	}
	return core.Result{
		Solved:          sr.Solved,
		Array:           sr.Solution,
		Winner:          winner,
		Iterations:      sr.Iterations,
		TotalIterations: sr.TotalIterations,
		WallTime:        time.Duration(sr.WallMS * float64(time.Millisecond)),
		Cancelled:       sr.Cancelled,
		Stats:           stats,
	}
}

// SolveSpec submits one run spec to the node. Spec option keys override
// opts client-side (exactly as in core.SolveSpec) so only model
// parameters travel in the model field.
func (r *Remote) SolveSpec(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
	opts.Backend = nil
	mspec, ropts, err := core.SplitRunSpec(spec, opts)
	if err != nil {
		return core.Result{}, err
	}
	wopts, err := wireOptions(ropts)
	if err != nil {
		return core.Result{}, err
	}
	timeoutMS, err := wireTimeoutMS(ctx)
	if err != nil {
		return core.Result{}, err
	}
	req := service.SolveRequest{Model: mspec, Options: wopts, TimeoutMS: timeoutMS}
	var resp service.SolveResponse
	if err := r.call(ctx, "/v1/solve", req, &resp); err != nil {
		return core.Result{}, err
	}
	return resultFromWire(resp), nil
}

// SolveBatch ships the batch to the node. Per-job seeds are pinned
// client-side from opts.MasterSeed by JOB INDEX (the same chaotic
// derivation core.SolveBatch uses) before anything goes on the wire, so
// the node's own seed derivation never runs and results stay
// bit-identical to an in-process run of the same batch — even when a
// Pool ships arbitrary sub-slices of it. Jobs that cannot be shipped
// (NewModel closures, custom params) fail per job, like every other
// per-job failure.
func (r *Remote) SolveBatch(ctx context.Context, jobs []core.BatchJob, opts core.BatchOptions) (core.BatchResult, error) {
	if jobs == nil {
		return core.BatchResult{}, fmt.Errorf("backend: nil batch job slice")
	}
	start := time.Now()
	out := core.BatchResult{Jobs: make([]core.JobResult, len(jobs))}
	seeds := core.DeriveSeeds(opts.MasterSeed, len(jobs))

	wire := make([]service.BatchJobRequest, 0, len(jobs))
	idx := make([]int, 0, len(jobs)) // wire position -> caller job index
	for i, job := range jobs {
		wj, err := wireBatchJob(job, seeds[i])
		if err != nil {
			out.Jobs[i] = core.JobResult{Job: i, Err: err}
			continue
		}
		wire = append(wire, wj)
		idx = append(idx, i)
	}

	if len(wire) > 0 {
		timeoutMS, err := wireTimeoutMS(ctx)
		if err != nil {
			return core.BatchResult{}, err
		}
		req := service.BatchRequest{
			Jobs:        wire,
			Concurrency: opts.Concurrency,
			TimeoutMS:   timeoutMS,
		}
		var resp service.BatchResponse
		if err := r.call(ctx, "/v1/batch", req, &resp); err != nil {
			return core.BatchResult{}, err
		}
		if len(resp.Jobs) != len(wire) {
			return core.BatchResult{}, &RemoteError{Backend: r.Name(), Err: fmt.Errorf("batch reply has %d jobs, sent %d", len(resp.Jobs), len(wire))}
		}
		for k, bjr := range resp.Jobs {
			jr := core.JobResult{Job: idx[k]}
			if bjr.Error != "" {
				jr.Err = errors.New(bjr.Error)
			}
			if bjr.Result != nil {
				jr.Result = resultFromWire(*bjr.Result)
			}
			out.Jobs[idx[k]] = jr
		}
	}

	out.Stats = core.SummarizeBatch(out.Jobs, time.Since(start))
	return out, nil
}

// wireBatchJob converts one batch job to the wire shape with its seed
// pinned.
func wireBatchJob(job core.BatchJob, seed uint64) (service.BatchJobRequest, error) {
	spec, err := job.ShipSpec()
	if err != nil {
		return service.BatchJobRequest{}, err
	}
	opts := job.Options
	opts.N, opts.Backend = 0, nil
	mspec, ropts, err := core.SplitRunSpec(spec, opts)
	if err != nil {
		return service.BatchJobRequest{}, err
	}
	if ropts.Seed == 0 {
		ropts.Seed = seed
	}
	wopts, err := wireOptions(ropts)
	if err != nil {
		return service.BatchJobRequest{}, err
	}
	return service.BatchJobRequest{Model: mspec, Options: wopts}, nil
}
