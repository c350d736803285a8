package main

// Timing wrappers around the calls into each module. They live in the
// benchmark so the program under test is unchanged; each one forwards
// exactly the interfaces of the value it wraps, so a traced run walks the
// same code paths and must reproduce the untraced iteration counts.

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/vfs"
)

// timedModel is a costas model whose ScanSwaps calls are timed. Embedding
// the concrete model forwards every method it has, so the engines find
// the same DeltaModel, ScanModel and Resetter interfaces they find on an
// unwrapped model. One walker owns one model, so the counters need no lock.
type timedModel struct {
	*costas.Model
	scanNS    int64
	scanCalls int64
}

func (m *timedModel) ScanSwaps(i int, deltas []int) {
	t := time.Now()
	m.Model.ScanSwaps(i, deltas)
	m.scanNS += int64(time.Since(t))
	m.scanCalls++
}

// timedEngine times Step, the unit of work the walk scheduler hands out.
// It forwards csp.Engine only, which is all the lockstep scheduler uses.
type timedEngine struct {
	csp.Engine
	stepNS    int64
	stepCalls int64
}

func (e *timedEngine) Step(quantum int) bool {
	t := time.Now()
	solved := e.Engine.Step(quantum)
	e.stepNS += int64(time.Since(t))
	e.stepCalls++
	return solved
}

// timedBackend times every solve the service hands to its backend.
type timedBackend struct {
	core.Backend
	mu    sync.Mutex
	solve map[uint64]time.Duration // by request seed
}

func newTimedBackend(b core.Backend) *timedBackend {
	return &timedBackend{Backend: b, solve: map[uint64]time.Duration{}}
}

func (b *timedBackend) SolveSpec(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
	t := time.Now()
	res, err := b.Backend.SolveSpec(ctx, spec, opts)
	d := time.Since(t)
	b.mu.Lock()
	b.solve[opts.Seed] += d
	b.mu.Unlock()
	return res, err
}

// take returns the solve times recorded so far and starts a new record.
func (b *timedBackend) take() map[uint64]time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.solve
	b.solve = map[uint64]time.Duration{}
	return out
}

// timedFS counts the bytes the campaign store writes and times its fsyncs.
type timedFS struct {
	vfs.FS
	mu    sync.Mutex
	bytes int64
	syncs []time.Duration
}

func (f *timedFS) OpenAppend(name string) (vfs.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

// take returns the bytes written and fsync times so far and resets them.
func (f *timedFS) take() (int64, []time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, s := f.bytes, f.syncs
	f.bytes, f.syncs = 0, nil
	return b, s
}

type timedFile struct {
	vfs.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	d := time.Since(t)
	f.fs.mu.Lock()
	f.fs.syncs = append(f.fs.syncs, d)
	f.fs.mu.Unlock()
	return err
}
