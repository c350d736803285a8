// Package servecache is the serving fast path's memory-for-speed layer:
// a sharded, mutex-striped LRU cache for solve results plus the
// in-flight coalescing (singleflight) that keeps a thundering herd on
// one hard instance from occupying more than one worker.
//
// The cache is correct by construction for this repository's workload:
// a solve is a deterministic function of (canonical run spec, solver
// options, explicit seed) — the registry canonicalizes the spec
// (registry.Spec.String/MarshalJSON) and the run layer is reproducible
// for fixed seeds in its deterministic modes — so replaying a recorded
// result is indistinguishable from re-solving. SolveKey encodes exactly
// that cacheability rule: it refuses requests whose outcome is not a
// pure function of the key (implicit seeds, real-mode multi-walk races,
// process-local parameter overrides), and callers must additionally
// refuse to store results that did not run to completion (cancelled or
// errored solves). See DESIGN.md §8.
//
// internal/service fronts its HTTP solve path with a Cache of encoded
// response bodies (hits cost zero worker slots and replay byte-identical
// wire bytes). That is the one result cache: a solverd coordinator's
// backend.Pool sits behind it, so repeat solves never reach the fleet.
package servecache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/costas"
)

// shardCount is the number of independently locked LRU shards. 16 is
// plenty to keep striping contention off a serving hot path whose
// critical section is a map lookup plus two pointer splices, while
// keeping per-shard capacity large enough that LRU order still means
// something at small cache sizes.
const shardCount = 16

// DefaultCapacity is the entry bound used when a caller passes 0 to New.
const DefaultCapacity = 4096

// Cache is a sharded LRU of string-keyed values. All methods are safe
// for concurrent use; each shard has its own mutex, so goroutines
// hashing to different shards never contend.
type Cache struct {
	shards [shardCount]shard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// Stats is a point-in-time counter snapshot for /metrics.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// entry is one LRU node; shards use an intrusive doubly-linked list with
// a sentinel head (head.next = most recent, head.prev = least recent).
type entry struct {
	key        string
	val        any
	prev, next *entry
}

type shard struct {
	mu  sync.Mutex
	m   map[string]*entry
	cap int
	// head is the list sentinel, initialised lazily by ensure().
	head *entry
}

// New returns a Cache bounded to capacity entries (total across all
// shards). capacity 0 means DefaultCapacity; a capacity below shardCount
// still grants each shard one entry.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := capacity / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		s.m = make(map[string]*entry)
		s.head = &entry{}
		s.head.prev, s.head.next = s.head, s.head
	}
	return c
}

// fnv1a is the shard hash (FNV-1a 64); the key strings are short and the
// hash runs outside any lock.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[fnv1a(key)%shardCount]
}

// Get returns the cached value for key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	var val any
	if ok {
		// Copy the value under the lock: Put of the same key rewrites
		// e.val in place.
		val = e.val
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put stores val under key, evicting the shard's least recently used
// entry past capacity. Storing an existing key refreshes its value and
// recency. Callers must only Put values that obey the package's
// cacheability rule; Put itself cannot check completeness.
func (c *Cache) Put(key string, val any) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.val = val
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &entry{key: key, val: val}
	s.m[key] = e
	s.pushFront(e)
	var evicted bool
	if len(s.m) > s.cap {
		lru := s.head.prev
		s.unlink(lru)
		delete(s.m, lru.key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the live entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns the counter totals and current entry count.
func (c *Cache) Snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

func (s *shard) pushFront(e *entry) {
	e.prev = s.head
	e.next = s.head.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *shard) moveToFront(e *entry) {
	s.unlink(e)
	s.pushFront(e)
}

// SolveKey builds the cache key for one solve request and reports
// whether the request is cacheable at all. The key covers every
// result-affecting input: the canonical model spec (registry grammar,
// parameters resolved and alphabetized) and each solver option that
// steers the search. Cacheable means the outcome is a deterministic
// function of that key:
//
//   - the seed must be explicit (0 is the "pick for me" sentinel the
//     run layer defaults; clients that did not pin a seed are promised
//     nothing about which walk they get, so their responses are never
//     replayed);
//   - the run mode must be deterministic: sequential (walkers ≤ 1) or
//     virtual lockstep. Real-mode multi-walk is a race — which walker
//     wins depends on scheduling — so its responses are not replayable
//     even for fixed seeds;
//   - no process-local overrides (custom adaptive Params, non-default
//     costas model options): they do not serialize into the key.
//
// Completion is the caller's half of the rule: only solved or
// budget-exhausted results may be stored — a cancelled or errored solve
// reflects the client's deadline, not the key.
func SolveKey(canonicalSpec string, o core.Options) (string, bool) {
	if o.Seed == 0 {
		return "", false
	}
	if o.Walkers > 1 && !o.Virtual {
		return "", false
	}
	if o.Params != nil || o.Model != (costas.Options{}) {
		return "", false
	}
	// Method names and the canonical spec grammar never contain '|', so
	// the field joints cannot collide across distinct inputs.
	return fmt.Sprintf("%s|m=%s|pf=%s|w=%d|v=%t|s=%d|mi=%d|ce=%d",
		canonicalSpec, o.Method, strings.Join(o.Portfolio, ","),
		o.Walkers, o.Virtual, o.Seed, o.MaxIterations, o.CheckEvery), true
}

// CacheableResult reports whether a completed solve outcome may be
// stored: the run must have ended by solving or exhausting its iteration
// budgets. A cancelled run is a partial trajectory cut by a deadline —
// replaying it would hand a client with a longer budget a worse answer
// than it paid for.
func CacheableResult(res core.Result) bool {
	return !res.Cancelled
}
