package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/vfs"
)

// Store is the campaign layer's durability substrate: one append-only
// JSON-lines log per campaign under a data directory. Each log line is
// one record — create, checkpoint, attempt or terminal state — written
// and fsynced before the mutation is acknowledged, so the on-disk log
// is always a prefix-consistent history. Open replays every log into an
// in-memory view; a coordinator restarted over the same directory
// therefore resumes exactly where the last acknowledged record left off.
//
// JSON lines rather than an embedded KV on purpose: records are small
// and infrequent (one per snapshot interval per shard), replay is a
// linear scan, the format is greppable during an incident, and the repo
// takes no new dependency. A torn final line (crash mid-append) is
// detected by the JSON decoder and dropped — the previous checkpoint
// stands, which is the "lose at most one snapshot interval" contract.
//
// Failure-domain hardening (DESIGN.md §10):
//
//   - All I/O goes through a vfs.FS, so the fault injector
//     (internal/faultinject) can drive failed writes, short writes,
//     fsync errors and ENOSPC through the real code paths.
//   - A failed, short or unsynced append is rolled back by truncating
//     the log to the last durable offset before the error is returned:
//     the mutation fails loudly, the in-memory view is untouched, and
//     the log never accretes a mid-file torn record (which replay
//     would reject as corruption). If the rollback itself fails the
//     file handle is dropped and the truncation is retried before the
//     next append touches the log.
//   - ENOSPC triggers one compaction of the campaign's log (dropping
//     superseded checkpoints usually frees space) and one retry before
//     the error surfaces.
//   - Logs are compacted — manually via Compact, or automatically past
//     Options.CompactBytes — by streaming the live view into a fresh
//     chunk-fsynced file and atomically renaming it over the old log
//     (write-new, fsync, rename, fsync dir), so month-scale campaigns
//     do not grow unbounded logs and a crash at any instant leaves
//     either the old complete log or the new complete log.
type Store struct {
	dir  string
	fs   vfs.FS
	opts StoreOptions

	mu        sync.Mutex
	files     map[string]*logFile // campaign ID → open log state (append mode)
	views     map[string]*view
	compacted map[string]int64 // campaign ID → log size right after its last compaction
}

// StoreOptions tunes durability mechanics. The zero value is
// production-safe.
type StoreOptions struct {
	// CompactBytes, when > 0, auto-compacts a campaign's log after an
	// append leaves it larger than this AND at least twice the size it
	// had right after its previous compaction (so an irreducibly large
	// log is not recompacted on every append). 0 disables
	// auto-compaction; Compact can still be called explicitly.
	CompactBytes int64
}

// compactChunk is how many records are buffered between fsyncs while
// writing a compacted log — the bounded-memory chunk size.
const compactChunk = 256

// logFile is one campaign's open append handle plus the bookkeeping the
// rollback path needs.
type logFile struct {
	f       vfs.File
	size    int64 // physical size, including any not-yet-repaired torn tail
	durable int64 // offset of the last acknowledged (written+fsynced) record end
	// needRepair is set when a failed append could not be rolled back in
	// place (the truncate itself failed); the next append must re-open
	// and truncate before writing.
	needRepair bool
}

// view is the replayed in-memory state of one campaign.
type view struct {
	spec     Spec
	state    string
	reason   string
	solution *Solution
	latest   map[int]Checkpoint // shard → highest-epoch checkpoint
	attempts map[int]int        // shard → cumulative attempts
	history  []CheckpointMeta   // every checkpoint record, in log order
}

// record is one log line. Exactly one payload field is set, selected by
// Type; unknown types are skipped on replay so old binaries can read
// logs written by newer ones.
type record struct {
	Type       string         `json:"type"` // "create" | "checkpoint" | "attempt" | "state"
	Spec       *Spec          `json:"spec,omitempty"`
	Checkpoint *Checkpoint    `json:"checkpoint,omitempty"`
	Attempt    *AttemptRecord `json:"attempt,omitempty"`
	State      *stateRecord   `json:"state,omitempty"`
}

type stateRecord struct {
	State    string    `json:"state"`
	Reason   string    `json:"reason,omitempty"`
	Solution *Solution `json:"solution,omitempty"`
}

const (
	logSuffix = ".campaign.jsonl"
	tmpSuffix = ".tmp"
)

// Open creates dir if needed and replays every campaign log in it, on
// the real filesystem with default options.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, vfs.OS{}, StoreOptions{})
}

// OpenFS is Open over an explicit filesystem and options — the seam the
// fault-injection harness uses.
func OpenFS(dir string, fsys vfs.FS, opts StoreOptions) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	s := &Store{
		dir:       dir,
		fs:        fsys,
		opts:      opts,
		files:     make(map[string]*logFile),
		views:     make(map[string]*view),
		compacted: make(map[string]int64),
	}
	names, err := fsys.ReadDirNames(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, logSuffix+tmpSuffix) {
			// A compaction that crashed before its rename; the old log is
			// still complete — the scratch file is garbage.
			_ = fsys.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, logSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, logSuffix)
		if err := s.replay(id); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Close closes every open log file. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, lf := range s.files {
		if err := lf.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, id)
	}
	return first
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+logSuffix) }

// replay reads one campaign log into a fresh view. A final line that
// fails to decode (torn write) is dropped; a malformed line elsewhere is
// an error — the log is supposed to be append-only.
func (s *Store) replay(id string) error {
	f, err := s.fs.Open(s.path(id))
	if err != nil {
		return fmt.Errorf("campaign: replay %s: %w", id, err)
	}
	defer f.Close()

	v := &view{latest: make(map[int]Checkpoint), attempts: make(map[int]int)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var pendingErr error
	applied := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// A bad line followed by more lines is corruption, not a torn
			// tail.
			return pendingErr
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("campaign: replay %s: corrupt record: %w", id, err)
			continue
		}
		v.apply(rec)
		applied++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("campaign: replay %s: %w", id, err)
	}
	if v.spec.ID == "" {
		if applied == 0 {
			// Not one record was ever acked: the process (or a failed,
			// rolled-back append) died during Create, before the campaign
			// existed durably. Nothing acknowledged is lost — drop the
			// stray file instead of refusing to open the whole store.
			f.Close()
			_ = s.fs.Remove(s.path(id))
			return nil
		}
		return fmt.Errorf("campaign: replay %s: log has no create record", id)
	}
	s.mu.Lock()
	s.views[id] = v
	s.mu.Unlock()
	return nil
}

func (v *view) apply(rec record) {
	switch rec.Type {
	case "create":
		if rec.Spec != nil {
			v.spec = *rec.Spec
			v.state = StateRunning
		}
	case "checkpoint":
		if cp := rec.Checkpoint; cp != nil {
			if prev, ok := v.latest[cp.Shard]; !ok || cp.Epoch > prev.Epoch {
				v.latest[cp.Shard] = *cp
			}
			v.history = append(v.history, cp.Meta())
		}
	case "attempt":
		if a := rec.Attempt; a != nil {
			if a.Attempts > v.attempts[a.Shard] {
				v.attempts[a.Shard] = a.Attempts
			}
		}
	case "state":
		if st := rec.State; st != nil {
			v.state = st.State
			v.reason = st.Reason
			if st.Solution != nil {
				v.solution = st.Solution
			}
		}
	}
}

// append writes one record to id's log and fsyncs before returning; the
// in-memory view is updated only after the record is durable. On
// ENOSPC the log is compacted once and the append retried before the
// error surfaces.
func (s *Store) append(id string, rec record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return fmt.Errorf("campaign: unknown campaign %q", id)
	}
	err := s.appendLocked(id, rec)
	if err != nil && errors.Is(err, syscall.ENOSPC) {
		// A full disk is the one append failure the store can help
		// itself out of: dropping superseded checkpoints usually frees
		// space. Compaction failing (still no space) falls through to
		// the original loud error.
		if cerr := s.compactLocked(id); cerr == nil {
			err = s.appendLocked(id, rec)
			v = s.views[id] // compaction rebuilt the view
		}
	}
	if err != nil {
		return err
	}
	v.apply(rec)
	s.maybeCompactLocked(id)
	return nil
}

// openLocked returns id's append handle, opening (and repairing) it if
// needed.
func (s *Store) openLocked(id string) (*logFile, error) {
	lf, ok := s.files[id]
	if ok && !lf.needRepair {
		return lf, nil
	}
	if ok {
		// A previous rollback failed in place: drop the handle and redo
		// the truncation through a fresh one.
		_ = lf.f.Close()
		delete(s.files, id)
	}
	f, err := s.fs.OpenAppend(s.path(id))
	if err != nil {
		return nil, err
	}
	size, err := s.fs.Size(s.path(id))
	if err != nil {
		f.Close()
		return nil, err
	}
	nlf := &logFile{f: f, size: size, durable: size}
	if ok && lf.durable < size {
		// Cut the torn tail the failed append left behind.
		if err := f.Truncate(lf.durable); err != nil {
			f.Close()
			return nil, err
		}
		nlf.size, nlf.durable = lf.durable, lf.durable
	}
	s.files[id] = nlf
	return nlf, nil
}

func (s *Store) appendLocked(id string, rec record) error {
	lf, err := s.openLocked(id)
	if err != nil {
		return fmt.Errorf("campaign: append %s: %w", id, err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: append %s: %w", id, err)
	}
	line = append(line, '\n')
	n, werr := lf.f.Write(line)
	lf.size += int64(n)
	if werr == nil && n < len(line) {
		werr = fmt.Errorf("short write (%d of %d bytes)", n, len(line))
	}
	if werr == nil {
		werr = lf.f.Sync()
	}
	if werr != nil {
		// The record is not acknowledged: roll the log back to the last
		// durable offset so the torn bytes cannot poison a future
		// replay as mid-file corruption.
		s.rollbackLocked(id, lf)
		return fmt.Errorf("campaign: append %s: %w", id, werr)
	}
	lf.durable = lf.size
	return nil
}

// rollbackLocked restores id's log to its last durable offset after a
// failed append. If the in-place truncate fails too, the handle is
// marked for repair: the next append re-opens and re-truncates before
// writing anything.
func (s *Store) rollbackLocked(id string, lf *logFile) {
	if lf.size == lf.durable {
		return
	}
	if err := lf.f.Truncate(lf.durable); err == nil {
		lf.size = lf.durable
		return
	}
	lf.needRepair = true
}

// Create persists a new campaign. spec must already be normalized and
// carry an ID; creating an existing ID is an error. The data directory
// is fsynced after the log file is created, so the file itself — not
// just its contents — survives a crash.
func (s *Store) Create(spec Spec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if spec.ID == "" {
		return fmt.Errorf("campaign: create without ID")
	}
	if _, ok := s.views[spec.ID]; ok {
		return fmt.Errorf("campaign: campaign %q already exists", spec.ID)
	}
	if err := s.appendLocked(spec.ID, record{Type: "create", Spec: &spec}); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("campaign: create %s: %w", spec.ID, err)
	}
	v := &view{latest: make(map[int]Checkpoint), attempts: make(map[int]int)}
	v.apply(record{Type: "create", Spec: &spec})
	s.views[spec.ID] = v
	return nil
}

// PutCheckpoint persists one shard checkpoint.
func (s *Store) PutCheckpoint(cp Checkpoint) error {
	return s.append(cp.CampaignID, record{Type: "checkpoint", Checkpoint: &cp})
}

// PutAttempt persists a shard (re)start event.
func (s *Store) PutAttempt(id string, a AttemptRecord) error {
	return s.append(id, record{Type: "attempt", Attempt: &a})
}

// PutState persists a state transition (solved, cancelled).
func (s *Store) PutState(id, state, reason string, sol *Solution) error {
	return s.append(id, record{Type: "state", State: &stateRecord{State: state, Reason: reason, Solution: sol}})
}

// LogSize reports the physical size of a campaign's log in bytes.
func (s *Store) LogSize(id string) (int64, error) {
	return s.fs.Size(s.path(id))
}

// Compact rewrites a campaign's log to the minimal record set that
// replays to its current view: the create record, each shard's latest
// checkpoint and cumulative attempt count, and the terminal state if
// any. Superseded checkpoints — the bulk of a month-scale log — are
// dropped, collapsing the stored history to the retained records.
//
// Crash safety is write-new/fsync/rename: records stream into a
// scratch file in bounded chunks (an fsync every compactChunk records,
// so memory and dirty-page footprint stay flat no matter the shard
// count), the scratch is fsynced and atomically renamed over the live
// log, and the directory is fsynced. A crash at any instant leaves
// either the complete old log or the complete new one, never a mix.
func (s *Store) Compact(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(id)
}

// maybeCompactLocked applies the auto-compaction policy after an
// acknowledged append.
func (s *Store) maybeCompactLocked(id string) {
	if s.opts.CompactBytes <= 0 {
		return
	}
	lf := s.files[id]
	if lf == nil || lf.size < s.opts.CompactBytes {
		return
	}
	if base := s.compacted[id]; base > 0 && lf.size < 2*base {
		// An irreducibly large log (all records live) would otherwise be
		// rewritten on every append.
		return
	}
	// Best-effort: auto-compaction failing must not fail the append
	// that triggered it — the next append will retry.
	_ = s.compactLocked(id)
}

// compactionRecords materializes the minimal record sequence for a view,
// in deterministic order (create, attempts, checkpoints by shard, state).
func compactionRecords(v *view) []record {
	spec := v.spec
	recs := []record{{Type: "create", Spec: &spec}}
	shards := make([]int, 0, len(v.attempts))
	for shard := range v.attempts {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		if v.attempts[shard] == 0 {
			continue
		}
		recs = append(recs, record{Type: "attempt", Attempt: &AttemptRecord{
			Shard: shard, Attempts: v.attempts[shard], Reason: "compacted",
		}})
	}
	shards = shards[:0]
	for shard := range v.latest {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		cp := v.latest[shard]
		recs = append(recs, record{Type: "checkpoint", Checkpoint: &cp})
	}
	if v.state != StateRunning {
		recs = append(recs, record{Type: "state", State: &stateRecord{
			State: v.state, Reason: v.reason, Solution: v.solution,
		}})
	}
	return recs
}

func (s *Store) compactLocked(id string) error {
	v, ok := s.views[id]
	if !ok {
		return fmt.Errorf("campaign: compact unknown campaign %q", id)
	}
	recs := compactionRecords(v)

	tmp := s.path(id) + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("campaign: compact %s: %w", id, err)
	}
	w := bufio.NewWriter(f)
	fail := func(err error) error {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("campaign: compact %s: %w", id, err)
	}
	var size int64
	for i, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return fail(err)
		}
		size += int64(len(line))
		// Chunked flush: bound the dirty buffer regardless of how many
		// shards the campaign has.
		if (i+1)%compactChunk == 0 {
			if err := w.Flush(); err != nil {
				return fail(err)
			}
			if err := f.Sync(); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("campaign: compact %s: %w", id, err)
	}

	// Point of no return: after the rename the new log IS the log.
	if err := s.fs.Rename(tmp, s.path(id)); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("campaign: compact %s: %w", id, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("campaign: compact %s: %w", id, err)
	}

	// The old append handle points at the unlinked inode; drop it so the
	// next append opens the compacted file.
	if lf := s.files[id]; lf != nil {
		_ = lf.f.Close()
		delete(s.files, id)
	}

	// The view's history collapses to what the compacted log retains.
	nv := &view{latest: make(map[int]Checkpoint), attempts: make(map[int]int)}
	for _, rec := range recs {
		nv.apply(rec)
	}
	s.views[id] = nv
	s.compacted[id] = size
	return nil
}

// Campaigns lists every known campaign ID, sorted.
func (s *Store) Campaigns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.views))
	for id := range s.views {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Spec returns a campaign's spec.
func (s *Store) Spec(id string) (Spec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return Spec{}, false
	}
	return v.spec, true
}

// State returns a campaign's current state.
func (s *Store) State(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return "", false
	}
	return v.state, true
}

// Latest returns shard's highest-epoch checkpoint, if any.
func (s *Store) Latest(id string, shard int) (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return Checkpoint{}, false
	}
	cp, ok := v.latest[shard]
	return cp, ok
}

// LatestEpoch returns shard's highest persisted epoch (0 if none).
func (s *Store) LatestEpoch(id string, shard int) int64 {
	cp, ok := s.Latest(id, shard)
	if !ok {
		return 0
	}
	return cp.Epoch
}

// Attempts returns shard's cumulative attempt count.
func (s *Store) Attempts(id string, shard int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return 0
	}
	return v.attempts[shard]
}

// History returns every checkpoint record of a campaign, in log order.
// Compaction collapses history to the latest checkpoint per shard.
func (s *Store) History(id string) []CheckpointMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return nil
	}
	out := make([]CheckpointMeta, len(v.history))
	copy(out, v.history)
	return out
}

// Status materializes a campaign's persisted view. The Worker field of
// each shard row and the Workers count are runtime facts the coordinator
// overlays; the store leaves them zero.
func (s *Store) Status(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return Status{}, false
	}
	st := Status{
		Spec:        v.spec,
		State:       v.state,
		Reason:      v.reason,
		Solution:    v.solution,
		BestCost:    -1,
		Checkpoints: len(v.history),
	}
	for shard := 0; shard < v.spec.Shards; shard++ {
		row := ShardStatus{Shard: shard, BestCost: -1, Attempts: v.attempts[shard]}
		if cp, ok := v.latest[shard]; ok {
			row.Epoch = cp.Epoch
			row.Iterations = cp.Iterations
			row.BestCost = cp.BestCost
			row.Updated = cp.Taken
			st.Iterations += cp.Iterations
			if st.BestCost < 0 || cp.BestCost < st.BestCost {
				st.BestCost = cp.BestCost
			}
		}
		st.Shards = append(st.Shards, row)
	}
	return st, true
}
