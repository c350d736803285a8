package service

// Concurrency stress for the async job machinery (part of the CI -race
// pass): many clients submit async batches at once against a small job
// store, so admission, oldest-first eviction, polling and the slot
// semaphore all contend; then the server shuts down mid-flight and must
// drain every admitted job to a terminal state.

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/registry"
)

func TestConcurrentAsyncBatchesEvictionAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	capJobStore(s, 4)

	const clients = 8
	const batchesPerClient = 3
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batchesPerClient; b++ {
				req := BatchRequest{
					Jobs: []BatchJobRequest{
						{Model: mustSpec(t, "costas n=9"), Options: OptionsJSON{Seed: uint64(c*100 + b + 1)}},
						{Model: mustSpec(t, "costas n=10"), Options: OptionsJSON{Seed: uint64(c*100 + b + 2)}},
					},
					Async: true,
				}
				var accept map[string]string
				code := postJSON(t, ts.URL+"/v1/batch", req, &accept)
				switch code {
				case http.StatusAccepted:
					mu.Lock()
					ids = append(ids, accept["id"])
					mu.Unlock()
				case http.StatusTooManyRequests:
					// A full store of unfinished jobs is a legitimate
					// refusal under this much pressure; back off briefly.
					time.Sleep(2 * time.Millisecond)
				default:
					t.Errorf("unexpected admission status %d", code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if len(ids) == 0 {
		t.Fatal("no batch was admitted")
	}

	// Shut down while work may still be in flight: the drain must finish
	// inside the budget and leave every still-stored job terminal.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain under concurrent async batches: %v", err)
	}

	stored, evicted := 0, 0
	for _, id := range ids {
		var st JobStatus
		switch code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code {
		case http.StatusOK:
			stored++
			if st.State != "done" {
				t.Fatalf("job %s not terminal after drain: %+v", id, st)
			}
		case http.StatusNotFound:
			evicted++ // evicted oldest-first to admit a later batch
		default:
			t.Fatalf("job %s: unexpected status %d", id, code)
		}
	}
	// The store cap guarantees eviction happened: more admissions than
	// the store cap means some finished jobs had to be dropped.
	if stored > 4 {
		t.Fatalf("store holds %d jobs, cap is 4", stored)
	}
	if stored+evicted != len(ids) {
		t.Fatalf("accounting: %d stored + %d evicted != %d admitted", stored, evicted, len(ids))
	}
	if len(ids) > 4 && evicted == 0 {
		t.Fatalf("%d admissions against a 4-job store must have evicted", len(ids))
	}

	// /metrics stays serviceable after shutdown and reflects the work.
	var m struct {
		Solves    int64 `json:"solves_total"`
		Queue     int64 `json:"queue_depth"`
		StoreSize int64 `json:"jobs_store_size"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Queue != 0 {
		t.Fatalf("queue depth must be 0 after drain, got %d", m.Queue)
	}
	if int(m.StoreSize) != stored {
		t.Fatalf("metrics store size %d, observed %d", m.StoreSize, stored)
	}
}

// mustSpec builds a registry spec from the grammar string form.
func mustSpec(t testing.TB, s string) registry.Spec {
	t.Helper()
	spec, extra, err := registry.ParseSpec(s)
	if err != nil || len(extra) > 0 {
		t.Fatalf("bad spec %q: %v (extra %v)", s, err, extra)
	}
	return spec
}
