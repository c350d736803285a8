package service

// End-to-end coverage of the HTTP solver service over httptest: solve
// round-trips for every registered model, mixed batches, async job
// polling, request-deadline cancellation mid-solve, malformed-request
// 400s, and concurrent-request safety (this package is part of the CI
// -race pass).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/registry"
)

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// capJobStore lowers s's async job-store cap (storedJobsCap otherwise)
// so a test can fill it.
func capJobStore(s *Server, n int) {
	s.mu.Lock()
	s.maxStoredJobs = n
	s.mu.Unlock()
}

// postJSON posts body (marshalled) and decodes the response into out,
// returning the status code.
func postJSON(t testing.TB, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestSolveRoundTripEveryModel: POST /v1/solve serves every registered
// model, and each claimed solution passes the model's own validator.
func TestSolveRoundTripEveryModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, e := range registry.All() {
		t.Run(e.Name, func(t *testing.T) {
			req := SolveRequest{
				Model:   registry.Spec{Name: e.Name, Params: e.Conformance},
				Options: OptionsJSON{Seed: 7},
			}
			var resp SolveResponse
			if code := postJSON(t, ts.URL+"/v1/solve", req, &resp); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if !resp.Solved || resp.Cancelled {
				t.Fatalf("unsolved: %+v", resp)
			}
			inst, err := registry.Build(registry.Spec{Name: e.Name, Params: e.Conformance})
			if err != nil {
				t.Fatal(err)
			}
			if !inst.Valid(resp.Solution) {
				t.Fatalf("served solution %v does not validate for %s", resp.Solution, e.Name)
			}
			if resp.Model == "" || resp.Iterations <= 0 || resp.Walkers < 1 {
				t.Fatalf("metadata missing: %+v", resp)
			}
		})
	}
}

// TestSolveStringSpecAndMethods: string-form model specs and non-default
// methods round-trip.
func TestSolveStringSpecAndMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var raw = []byte(`{"model": "costas n=11", "options": {"method": "tabu", "walkers": 2, "seed": 3}}`)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !out.Solved {
		t.Fatalf("status %d, %+v", resp.StatusCode, out)
	}
	if out.Model != "costas n=11" {
		t.Fatalf("canonical model echo %q", out.Model)
	}
	if out.Walkers != 2 {
		t.Fatalf("walkers %d, want 2", out.Walkers)
	}
}

// TestBatchMixedJobs: one batch mixing four models and methods — all
// solve.
func TestBatchMixedJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := BatchRequest{
		Jobs: []BatchJobRequest{
			{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 10}}},
			{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 10}}},
			{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 10}}},
			{Model: registry.Spec{Name: "nqueens", Params: map[string]int{"n": 16}}, Options: OptionsJSON{Method: "tabu"}},
			{Model: registry.Spec{Name: "magicsquare", Params: map[string]int{"k": 4}}},
			{Model: registry.Spec{Name: "thumbtack", Params: map[string]int{"n": 9}}},
		},
		MasterSeed:  5,
		Concurrency: 1,
	}
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Stats.Jobs != 6 || resp.Stats.Solved != 6 || resp.Stats.Errors != 0 {
		t.Fatalf("stats %+v", resp.Stats)
	}
	for _, jr := range resp.Jobs {
		if jr.Error != "" || jr.Result == nil || !jr.Result.Solved {
			t.Fatalf("job %d failed: %+v", jr.Job, jr)
		}
	}
}

// TestBatchRejectsReuseEngines: a batch body that asks for engine reuse
// (reuse_engines, no longer part of the API) is a client error naming the
// field, not a batch silently solved without it.
func TestBatchRejectsReuseEngines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postRaw(t, ts.URL+"/v1/batch",
		[]byte(`{"jobs": [{"model": "costas n=10"}], "reuse_engines": true}`))
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
	var out struct{ Error string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Error, `unknown field "reuse_engines"`) {
		t.Fatalf("error does not name the field: %q", out.Error)
	}
}

// TestAsyncJobPolling: async solve returns 202 + id; polling reaches
// "done" with the result attached.
func TestAsyncJobPolling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var accept map[string]string
	code := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 12}}, Async: true}, &accept)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	id := accept["id"]
	if id == "" || accept["url"] != "/v1/jobs/"+id {
		t.Fatalf("bad accept body %v", accept)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if st.State == "done" {
			if st.Error != "" || st.Solve == nil || !st.Solve.Solved {
				t.Fatalf("job finished badly: %+v", st)
			}
			if st.Kind != "solve" || st.ID != id {
				t.Fatalf("job metadata: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAsyncBatchPolling: the batch endpoint supports the same async path.
func TestAsyncBatchPolling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var accept map[string]string
	code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Jobs:  []BatchJobRequest{{Model: registry.Spec{Name: "allinterval", Params: map[string]int{"n": 10}}}},
		Async: true,
	}, &accept)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+accept["id"], &st)
		if st.State == "done" {
			if st.Batch == nil || st.Batch.Stats.Solved != 1 {
				t.Fatalf("batch job finished badly: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("async batch stuck")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlineCancelsMidSolve: a hard instance with a tight timeout_ms
// must come back quickly as cancelled, not block until solved — the
// request deadline propagates into the running scheduler.
func TestDeadlineCancelsMidSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SolveRequest{
		Model:     registry.Spec{Name: "costas", Params: map[string]int{"n": 24}}, // far beyond quick solvability
		Options:   OptionsJSON{Seed: 1},
		TimeoutMS: 100,
	}
	start := time.Now()
	var resp SolveResponse
	if code := postJSON(t, ts.URL+"/v1/solve", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Solved || !resp.Cancelled {
		t.Fatalf("expected a cancelled partial result, got %+v", resp)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestBatchDeadlineCancels: the same deadline semantics hold through the
// batch layer — cancelled jobs report errors, the batch returns promptly.
func TestBatchDeadlineCancels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := BatchRequest{
		Jobs: []BatchJobRequest{
			{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 24}}},
			{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 24}}},
		},
		TimeoutMS: 100,
	}
	start := time.Now()
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("batch did not respect its deadline")
	}
	if resp.Stats.Errors != 2 {
		t.Fatalf("expected both jobs cancelled, stats %+v", resp.Stats)
	}
}

// TestMalformedRequests: every class of client error is a 4xx with a
// JSON error body, never a 5xx or a hang.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWalkers: 8, MaxBatchJobs: 4})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"not json", "/v1/solve", "{", http.StatusBadRequest},
		{"unknown field", "/v1/solve", `{"model":"costas n=10","bogus":1}`, http.StatusBadRequest},
		{"trailing data", "/v1/solve", `{"model":"costas n=10"}{"x":1}`, http.StatusBadRequest},
		{"unknown model", "/v1/solve", `{"model":"nosuchmodel n=4"}`, http.StatusBadRequest},
		{"unknown model param", "/v1/solve", `{"model":"costas z=4"}`, http.StatusBadRequest},
		{"typo'd params field", "/v1/solve", `{"model":{"name":"costas","paramz":{"n":18}}}`, http.StatusBadRequest},
		{"param below min", "/v1/solve", `{"model":"magicsquare k=1"}`, http.StatusBadRequest},
		{"bad method", "/v1/solve", `{"model":"costas n=10","options":{"method":"simulated-annealing"}}`, http.StatusBadRequest},
		{"portfolio without method", "/v1/solve", `{"model":"costas n=10","options":{"portfolio":["tabu"]}}`, http.StatusBadRequest},
		{"walkers over cap", "/v1/solve", `{"model":"costas n=10","options":{"walkers":9}}`, http.StatusBadRequest},
		{"empty batch", "/v1/batch", `{"jobs":[]}`, http.StatusBadRequest},
		{"batch over cap", "/v1/batch", `{"jobs":[{"model":"costas n=10"},{"model":"costas n=10"},{"model":"costas n=10"},{"model":"costas n=10"},{"model":"costas n=10"}]}`, http.StatusBadRequest},
		{"bad job in batch", "/v1/batch", `{"jobs":[{"model":"costas n=10"},{"model":"nope n=1"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.path, tc.body)
			if code != tc.want {
				t.Fatalf("status %d (body %s), want %d", code, body, tc.want)
			}
			var e map[string]string
			if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
				t.Fatalf("error body not JSON with error field: %s", body)
			}
		})
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", code)
	}
	// Wrong method on a known path.
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve returned %d, want 405", resp.StatusCode)
	}
}

// TestModelsCatalogue: GET /v1/models publishes every registry entry with
// its parameter table and the spec option keys.
func TestModelsCatalogue(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp ModelsResponse
	if code := getJSON(t, ts.URL+"/v1/models", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Models) != len(registry.Names()) {
		t.Fatalf("catalogue has %d models, registry %d", len(resp.Models), len(registry.Names()))
	}
	seen := map[string]bool{}
	for _, m := range resp.Models {
		seen[m.Name] = true
		if m.Description == "" || len(m.Params) == 0 || m.DefaultSpec == "" {
			t.Fatalf("incomplete catalogue entry %+v", m)
		}
	}
	for _, name := range registry.Names() {
		if !seen[name] {
			t.Fatalf("model %s missing from catalogue", name)
		}
	}
	if len(resp.OptionKeys) == 0 {
		t.Fatal("no option keys published")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h["ok"] != true {
		t.Fatalf("healthz %v", h)
	}
}

// tryPost / tryGet are goroutine-safe counterparts of postJSON/getJSON:
// they report failures as errors instead of calling t.Fatal, which must
// not run outside the test goroutine.
func tryPost(url string, body any, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("bad response %q: %w", data, err)
		}
	}
	return resp.StatusCode, nil
}

func tryGet(url string, out any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// TestConcurrentRequests hammers the server from many goroutines mixing
// sync solves, batches, async jobs, polling and catalogue reads — the
// -race CI pass runs this to certify the store and semaphore. The walker
// cap and worker pool stay small so the test exercises queueing too.
func TestConcurrentRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	capJobStore(s, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				seed := uint64(g*100 + k + 1)
				var solve SolveResponse
				code, err := tryPost(ts.URL+"/v1/solve", SolveRequest{
					Model:   registry.Spec{Name: "costas", Params: map[string]int{"n": 10}},
					Options: OptionsJSON{Seed: seed},
				}, &solve)
				if err != nil || code != http.StatusOK || !solve.Solved {
					errs <- fmt.Errorf("g%d solve: code %d solved %v err %v", g, code, solve.Solved, err)
					return
				}

				var accept map[string]string
				code, err = tryPost(ts.URL+"/v1/solve", SolveRequest{
					Model:   registry.Spec{Name: "nqueens", Params: map[string]int{"n": 16}},
					Options: OptionsJSON{Seed: seed},
					Async:   true,
				}, &accept)
				if err != nil || code != http.StatusAccepted {
					errs <- fmt.Errorf("g%d async: code %d err %v", g, code, err)
					return
				}
				for {
					var st JobStatus
					if _, err := tryGet(ts.URL+"/v1/jobs/"+accept["id"], &st); err != nil {
						errs <- fmt.Errorf("g%d poll: %v", g, err)
						return
					}
					if st.State == "done" {
						if st.Error != "" || st.Solve == nil || !st.Solve.Solved {
							errs <- fmt.Errorf("g%d job: %+v", g, st)
						}
						break
					}
					time.Sleep(time.Millisecond)
				}

				var models ModelsResponse
				if _, err := tryGet(ts.URL+"/v1/models", &models); err != nil {
					errs <- fmt.Errorf("g%d models: %v", g, err)
					return
				}
				var h map[string]any
				if _, err := tryGet(ts.URL+"/healthz", &h); err != nil {
					errs <- fmt.Errorf("g%d healthz: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShutdownCancelsSyncSolve: Shutdown must stop an in-flight SYNC
// solve at its next probe quantum (not just async work) — otherwise a
// deadline-less sync request pins the drain for its whole budget.
func TestShutdownCancelsSyncSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	type outcome struct {
		code int
		resp SolveResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		var resp SolveResponse
		code, err := tryPost(ts.URL+"/v1/solve", SolveRequest{
			Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 24}}, // no timeout: would run ~forever
		}, &resp)
		done <- outcome{code, resp, err}
	}()
	time.Sleep(30 * time.Millisecond) // let the solve start
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case o := <-done:
		if o.err != nil || o.code != http.StatusOK {
			t.Fatalf("sync solve during shutdown: code %d err %v", o.code, o.err)
		}
		if o.resp.Solved || !o.resp.Cancelled {
			t.Fatalf("expected cancelled partial result, got %+v", o.resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync solve not cancelled by shutdown")
	}
}

// TestBatchHoldsInnerConcurrencySlots: a running batch occupies as many
// worker slots as its inner concurrency, so a server with Workers=2 and
// a concurrency-2 batch in flight has no slot left for a sync solve.
func TestBatchHoldsInnerConcurrencySlots(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	batchDone := make(chan error, 1)
	go func() {
		var resp BatchResponse
		code, err := tryPost(ts.URL+"/v1/batch", BatchRequest{
			Jobs: []BatchJobRequest{
				{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 24}}},
				{Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 24}}},
			},
			Concurrency: 2,
			TimeoutMS:   800, // long enough to observe, short enough to finish
		}, &resp)
		if err != nil || code != http.StatusOK {
			batchDone <- fmt.Errorf("batch: code %d err %v", code, err)
			return
		}
		batchDone <- nil
	}()
	time.Sleep(100 * time.Millisecond) // batch now holds both slots

	// A sync solve with a short deadline cannot get a slot while the
	// batch holds the pool: 503.
	var e map[string]string
	code, err := tryPost(ts.URL+"/v1/solve", SolveRequest{
		Model:     registry.Spec{Name: "costas", Params: map[string]int{"n": 8}},
		TimeoutMS: 150,
	}, &e)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("solve got a slot while a full-width batch was running: code %d body %v", code, e)
	}
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsAndCancels: Shutdown cancels running async work (the
// job completes as cancelled) and returns once drained.
func TestShutdownDrainsAndCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var accept map[string]string
	code := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Model: registry.Spec{Name: "costas", Params: map[string]int{"n": 24}}, // will not finish on its own
		Async: true,
	}, &accept)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	// Let it start running, then shut down.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var st JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+accept["id"], &st)
	if st.State != "done" {
		t.Fatalf("job not drained: %+v", st)
	}
	if st.Solve != nil && st.Solve.Solved {
		t.Fatalf("improbable: hard instance solved during drain: %+v", st)
	}
}

// TestJobStoreEviction: finished jobs are evicted oldest-first at the
// cap; the store never refuses while done jobs can make room.
func TestJobStoreEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	capJobStore(s, 3)
	ids := []string{}
	for k := 0; k < 5; k++ {
		var accept map[string]string
		code := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			Model:   registry.Spec{Name: "costas", Params: map[string]int{"n": 8}},
			Options: OptionsJSON{Seed: uint64(k + 1)},
			Async:   true,
		}, &accept)
		if code != http.StatusAccepted {
			t.Fatalf("admission %d refused with %d", k, code)
		}
		ids = append(ids, accept["id"])
		// Wait for completion so the next admission can evict it.
		deadline := time.Now().Add(20 * time.Second)
		for {
			var st JobStatus
			getJSON(t, ts.URL+"/v1/jobs/"+accept["id"], &st)
			if st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job stuck")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The earliest job must be gone, the latest still present.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Fatalf("oldest job still stored (status %d)", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[len(ids)-1], nil); code != http.StatusOK {
		t.Fatalf("newest job missing (status %d)", code)
	}
}

// BenchmarkSolveEndpoint measures the full HTTP round-trip of a small
// solve — the serving-path overhead on top of the raw engine (kept in the
// CI bench smoke alongside the core benches).
func BenchmarkSolveEndpoint(b *testing.B) {
	_, ts := newTestServer(b, Config{})
	body, _ := json.Marshal(SolveRequest{
		Model:   registry.Spec{Name: "costas", Params: map[string]int{"n": 10}},
		Options: OptionsJSON{Seed: 1},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
