package walk

// Tests of the lockstep round machinery itself: home-shard claiming with
// stealing, the spin-then-park round barrier and the helpers' lifetime.
// They drive runLockstep and Virtual with countingEngine, a fake walker
// whose fate (solved, exhausted, parked) is fixed up front.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/csp"
)

// countingEngine is a fake walker. Each Step adds the quantum to its
// virtual time and counts the call. It is solved from the start
// (solveAt < 0), solves on step solveAt (> 0), or is exhausted after
// budget steps (> 0); otherwise it runs until the window or run ends.
type countingEngine struct {
	t       *testing.T
	iters   int64
	steps   int
	budget  int
	solveAt int
	// slow is slept in every Step, long enough that the other workers
	// wait past spinFor at the round barrier and park.
	slow time.Duration
	// onStep, when set, runs inside every Step with the step's number.
	onStep func(step int)
}

func (e *countingEngine) Step(quantum int) bool {
	if quantum <= 0 || e.Solved() || e.Exhausted() {
		e.t.Errorf("stepped a dead walker: quantum %d, solved %v, exhausted %v", quantum, e.Solved(), e.Exhausted())
	}
	e.steps++
	e.iters += int64(quantum)
	if e.slow > 0 {
		time.Sleep(e.slow)
	}
	if e.onStep != nil {
		e.onStep(e.steps)
	}
	return e.Solved()
}

func (e *countingEngine) Solve() bool {
	for !e.Solved() && !e.Exhausted() {
		e.Step(1)
	}
	return e.Solved()
}

func (e *countingEngine) Solved() bool {
	return e.solveAt < 0 || e.solveAt > 0 && e.steps >= e.solveAt
}

func (e *countingEngine) Exhausted() bool { return e.budget > 0 && e.steps >= e.budget && !e.Solved() }
func (e *countingEngine) Cost() int       { return 1 - b2i(e.Solved()) }
func (e *countingEngine) Solution() []int { return []int{0} }
func (e *countingEngine) Stats() csp.Stats {
	return csp.Stats{Iterations: e.iters}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// life is how many rounds the walker is stepped in a run of unbounded
// length: up to its budget, its solving step, or the window's end.
func (e *countingEngine) life(quantum int, until int64) int {
	if e.solveAt < 0 {
		return 0
	}
	n := math.MaxInt
	if e.budget > 0 {
		n = e.budget
	}
	if e.solveAt > 0 {
		n = min(n, e.solveAt)
	}
	if until > 0 {
		n = min(n, int((until-e.iters+int64(quantum)-1)/int64(quantum)))
	}
	return n
}

// returnsWithin runs f and fails the test if it has not returned after d:
// a lost wakeup at the round barrier hangs the run instead of failing it.
func returnsWithin(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("run did not return within %v", d)
	}
}

// TestLockstepStepsEveryLiveWalkerOncePerRound: however the walkers split
// into home shards — uneven shards, more workers than walkers — every
// live walker is stepped exactly once per round, and a solved, exhausted
// or parked walker never is. Each step audits the round barrier: when a
// walker takes its step s, every walker has finished round s−1 (or its
// life) and none has gone past round s. Walkers 1 and K−1 sleep through
// their steps, so the other workers wait past the spin bound and park at
// the barrier.
func TestLockstepStepsEveryLiveWalkerOncePerRound(t *testing.T) {
	const quantum = 4
	for _, shape := range []struct{ walkers, workers int }{{7, 3}, {33, 2}, {5, 16}} {
		for _, solve := range []bool{false, true} {
			name := fmt.Sprintf("K=%d/W=%d/solve=%v", shape.walkers, shape.workers, solve)
			t.Run(name, func(t *testing.T) {
				k := shape.walkers
				s := schedule{quantum: quantum, workers: shape.workers}
				fakes := make([]*countingEngine, k)
				engines := make([]csp.Engine, k)
				for i := range fakes {
					e := &countingEngine{t: t}
					switch i % 4 {
					case 0:
						if !solve {
							e.solveAt = -1
						}
					case 1:
						e.budget = 2 + i%3
					case 2:
						e.iters = int64(i%5) * quantum / 2 // parks after a clamped last step
					}
					if i == 1 || i == k-1 {
						e.slow = 300 * time.Microsecond
					}
					fakes[i], engines[i] = e, e
				}
				wantWinner := -1
				if solve {
					fakes[k-1].solveAt, fakes[k-1].budget = 4, 0
					wantWinner = k - 1
				} else {
					s.until = 6 * quantum
				}
				lives := make([]int, k)
				rounds := 0
				for i, e := range fakes {
					lives[i] = e.life(quantum, s.until)
					rounds = max(rounds, lives[i])
				}
				if solve {
					rounds = lives[k-1]
				}
				done := make([]atomic.Int64, k) // steps each walker has finished
				for i, e := range fakes {
					e.onStep = func(step int) {
						for j := range done {
							if got := done[j].Load(); got > int64(step) || got < int64(min(step-1, lives[j])) {
								t.Errorf("walker %d at round %d: walker %d has finished %d steps", i, step, j, got)
							}
						}
						done[i].Store(int64(step))
					}
				}

				var winner int
				returnsWithin(t, 10*time.Second, func() { winner = runLockstep(context.Background(), engines, s) })
				if winner != wantWinner {
					t.Errorf("winner %d, want %d", winner, wantWinner)
				}
				for i, e := range fakes {
					if want := min(lives[i], rounds); e.steps != want {
						t.Errorf("walker %d stepped %d times, want %d", i, e.steps, want)
					}
				}
			})
		}
	}
}

// TestLockstepStealsFromBlockedShard: a walker whose step cannot finish
// until another walker of the same home shard has been stepped in the
// same round completes only if another worker steals that walker.
func TestLockstepStealsFromBlockedShard(t *testing.T) {
	const quantum, rounds = 4, 5
	engines := make([]csp.Engine, 4) // two workers: shards {0, 1} and {2, 3}
	signal := make(chan struct{}, 1)
	for i := range engines {
		e := &countingEngine{t: t}
		switch i {
		case 0:
			e.onStep = func(int) {
				select {
				case <-signal:
				case <-time.After(5 * time.Second):
					t.Error("walker 0 waited 5 s for walker 1 of its home shard: nobody stole it")
				}
			}
		case 1:
			e.onStep = func(int) { signal <- struct{}{} }
		}
		engines[i] = e
	}
	s := schedule{quantum: quantum, workers: 2, until: rounds * quantum}
	returnsWithin(t, 10*time.Second, func() { runLockstep(context.Background(), engines, s) })
	for i, e := range engines {
		if got := e.(*countingEngine).steps; got != rounds {
			t.Errorf("walker %d stepped %d times, want %d", i, got, rounds)
		}
	}
}

// TestVirtualLeavesNoGoroutines: however a lockstep run ends — solved,
// cancelled mid-run or out of budget — its helpers are gone by the time
// Virtual returns.
func TestVirtualLeavesNoGoroutines(t *testing.T) {
	const walkers, quantum = 20, 4
	type run struct {
		budget  int64
		engine  func(i int, cancel func()) *countingEngine
		outcome func(Result) bool
	}
	runs := map[string]run{
		"solved": {
			engine: func(i int, _ func()) *countingEngine {
				return &countingEngine{solveAt: 7 * b2i(i == 5)}
			},
			outcome: func(r Result) bool { return r.Solved && r.Winner == 5 },
		},
		"cancelled": {
			engine: func(i int, cancel func()) *countingEngine {
				e := &countingEngine{}
				if i == 3 {
					e.onStep = func(step int) {
						if step == 5 {
							cancel()
						}
					}
				}
				return e
			},
			outcome: func(r Result) bool { return r.Cancelled && r.Stats[0].Iterations == 5*quantum },
		},
		"budget": {
			budget:  10 * quantum,
			engine:  func(int, func()) *countingEngine { return &countingEngine{} },
			outcome: func(r Result) bool { return !r.Solved && !r.Cancelled && r.Stats[0].Iterations == 10*quantum },
		},
	}
	for name, r := range runs {
		for _, parallelism := range []int{2, 16} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", name, parallelism), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var made int
				cfg := Config{
					Walkers:        walkers,
					CheckEvery:     quantum,
					MaxParallelism: parallelism,
					Factory: func(csp.Model, uint64) csp.Engine {
						e := r.engine(made, cancel)
						e.t = t
						made++
						return e
					},
				}
				var res Result
				returnsWithin(t, 10*time.Second, func() {
					res = Virtual(ctx, func() csp.Model { return nil }, cfg, r.budget)
				})
				if !r.outcome(res) {
					t.Errorf("unexpected outcome: %+v", res)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := runtime.NumGoroutine(); got > baseline {
					t.Errorf("%d goroutines after the run, %d before", got, baseline)
				}
			})
		}
	}
}

// TestVirtualOversubscribed: four lockstep runs at MaxParallelism 4 on two
// OS threads — sixteen workers spinning, yielding and parking on two
// threads — all finish, each with its single-threaded outcome.
func TestVirtualOversubscribed(t *testing.T) {
	const n, runs = 12, 4
	config := func(seed uint64, parallelism int) Config {
		cfg := capConfig(n, 16, seed)
		cfg.CheckEvery, cfg.MaxParallelism = 8, parallelism
		return cfg
	}
	outcome := func(cfg Config) Result {
		r := Virtual(context.Background(), capFactory(n), cfg, 0)
		r.WallTime = 0
		return r
	}
	want := make([]Result, runs)
	for k := range want {
		want[k] = outcome(config(uint64(40+k), 1))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	got := make([]Result, runs)
	returnsWithin(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k] = outcome(config(uint64(40+k), 4))
			}(k)
		}
		wg.Wait()
	})
	for k := range got {
		if !want[k].Solved || !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("run %d at MaxParallelism 4 on 2 threads diverges from single-threaded lockstep:\n got %+v\nwant %+v", k, got[k], want[k])
		}
	}
}

// TestParkerIgnoresLateUnpark: an unpark meant for an earlier wait can
// reach a parked waiter before its counter holds the awaited value; the
// waiter must park again rather than return early.
func TestParkerIgnoresLateUnpark(t *testing.T) {
	var v atomic.Int64
	p := parker{wake: make(chan struct{}, 1)}
	setter := make(chan struct{})
	go func() {
		defer close(setter)
		for !p.parked.Load() {
			runtime.Gosched()
		}
		p.unpark() // late: v does not hold 1 yet
		time.Sleep(10 * spinFor)
		v.Store(1)
		p.unpark()
	}()
	returnsWithin(t, 10*time.Second, func() { p.wait(&v, 1) })
	if got := v.Load(); got != 1 {
		t.Errorf("wait returned with the counter at %d, want 1", got)
	}
	<-setter
}
