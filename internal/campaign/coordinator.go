package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Control is the worker-facing face of the coordinator: registration and
// the heartbeat that carries everything else (progress reports up,
// assignments down). The Coordinator implements it directly for
// in-process workers; HTTPControl (httpctl.go) implements it over the
// service's /v1/campaigns endpoints for remote ones.
type Control interface {
	Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	WorkerID string `json:"worker_id"`
	Capacity int    `json:"capacity"` // max concurrent shards (≤0 → 1)
}

// RegisterResponse acknowledges membership and tells the worker how
// often it must be heard from.
type RegisterResponse struct {
	LeaseTTL time.Duration `json:"lease_ttl"`
}

// ShardRef names one shard of one campaign.
type ShardRef struct {
	CampaignID string `json:"campaign_id"`
	Shard      int    `json:"shard"`
}

// HeartbeatRequest is the worker's periodic report: what it is running,
// and every checkpoint/solution produced since the last successful
// heartbeat (the worker buffers these through coordinator outages).
type HeartbeatRequest struct {
	WorkerID    string       `json:"worker_id"`
	Capacity    int          `json:"capacity"`
	Running     []ShardRef   `json:"running,omitempty"`
	Checkpoints []Checkpoint `json:"checkpoints,omitempty"`
	Solutions   []Solution   `json:"solutions,omitempty"`
}

// Assignment hands a shard to a worker, with the checkpoint to resume
// from (nil on a fresh shard).
type Assignment struct {
	Spec   Spec        `json:"spec"`
	Shard  int         `json:"shard"`
	Resume *Checkpoint `json:"resume,omitempty"`
}

// HeartbeatResponse carries the coordinator's orders: shards to start,
// shards to stop, and the lease TTL the worker must beat.
type HeartbeatResponse struct {
	Assign   []Assignment  `json:"assign,omitempty"`
	Cancel   []ShardRef    `json:"cancel,omitempty"`
	LeaseTTL time.Duration `json:"lease_ttl"`
}

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Store is the durable substrate. Required.
	Store *Store

	// LeaseTTL is how long a silent worker keeps its shards; a member
	// not heard from for this long is expired and its shards are
	// reassigned (with the attempt persisted). Default 15s.
	LeaseTTL time.Duration

	// MaxClockJump bounds the clock step the coordinator attributes to
	// real time passing. When consecutive expiry scans observe Now()
	// move by more than this — an NTP step, a suspended VM, a stalled
	// process — the gap is treated as a clock anomaly rather than
	// worker silence: every live lease is re-armed for one fresh TTL
	// instead of mass-expiring the fleet and thrashing shard
	// assignments. Genuinely dead workers still expire, one TTL after
	// the anomaly. Default 2×LeaseTTL; negative disables detection.
	MaxClockJump time.Duration

	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// Coordinator owns campaign lifecycle and shard placement. All public
// methods are safe for concurrent use.
//
// Recovery is built from two idempotent rules rather than a handoff
// protocol:
//
//   - a heartbeat from an unknown worker registers it implicitly, so a
//     restarted coordinator rebuilds its member set from the next round
//     of heartbeats;
//   - a reported running shard that is unassigned is adopted (the
//     restarted coordinator marked every shard pending at replay; the
//     report proves a live owner), while one assigned to a DIFFERENT
//     worker is cancelled — the persisted assignment wins, duplicates
//     lose.
//
// Workers keep walking through a coordinator outage and deliver their
// buffered checkpoints when it returns, so a coordinator restart costs
// no search progress at all; a worker death costs at most one snapshot
// interval of its shards' work.
type Coordinator struct {
	store   *Store
	ttl     time.Duration
	maxJump time.Duration
	now     func() time.Time

	mu         sync.Mutex
	members    map[string]*member
	assigned   map[ShardRef]string // shard → owning worker ID
	pending    map[ShardRef]bool   // runnable, unassigned shards
	lastTick   time.Time           // Now() at the previous expiry scan
	skewEvents int                 // clock anomalies absorbed
}

type member struct {
	id       string
	capacity int
	expires  time.Time
	shards   map[ShardRef]bool
}

// NewCoordinator replays cfg.Store into a fresh coordinator: every
// running campaign's shards start pending and are handed out as workers
// heartbeat in.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("campaign: coordinator needs a store")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxClockJump == 0 {
		cfg.MaxClockJump = 2 * cfg.LeaseTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		store:    cfg.Store,
		ttl:      cfg.LeaseTTL,
		maxJump:  cfg.MaxClockJump,
		now:      cfg.Now,
		members:  make(map[string]*member),
		assigned: make(map[ShardRef]string),
		pending:  make(map[ShardRef]bool),
	}
	for _, id := range cfg.Store.Campaigns() {
		if st, _ := cfg.Store.State(id); st != StateRunning {
			continue
		}
		spec, _ := cfg.Store.Spec(id)
		for shard := 0; shard < spec.Shards; shard++ {
			c.pending[ShardRef{CampaignID: id, Shard: shard}] = true
		}
	}
	return c, nil
}

// Create normalizes, persists and schedules a new campaign, returning
// the stored spec (ID assigned, defaults applied).
func (c *Coordinator) Create(spec Spec) (Spec, error) {
	spec.Created = c.now().UTC()
	if spec.ID == "" {
		spec.ID = NewID()
	}
	spec, err := spec.Normalize()
	if err != nil {
		return Spec{}, err
	}
	if err := c.store.Create(spec); err != nil {
		return Spec{}, err
	}
	c.mu.Lock()
	for shard := 0; shard < spec.Shards; shard++ {
		c.pending[ShardRef{CampaignID: spec.ID, Shard: shard}] = true
	}
	c.mu.Unlock()
	return spec, nil
}

// Cancel moves a campaign to the cancelled state; its running shards are
// stopped on each owner's next heartbeat.
func (c *Coordinator) Cancel(id, reason string) error {
	st, ok := c.store.State(id)
	if !ok {
		return fmt.Errorf("campaign: unknown campaign %q", id)
	}
	if st != StateRunning {
		return nil // terminal already; idempotent
	}
	if reason == "" {
		reason = "cancelled"
	}
	if err := c.store.PutState(id, StateCancelled, reason, nil); err != nil {
		return err
	}
	c.retire(id)
	return nil
}

// retire removes every scheduling trace of a campaign (it reached
// a terminal state). Owning workers learn via the Cancel list of their
// next heartbeat.
func (c *Coordinator) retire(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ref := range c.pending {
		if ref.CampaignID == id {
			delete(c.pending, ref)
		}
	}
	for ref, worker := range c.assigned {
		if ref.CampaignID == id {
			delete(c.assigned, ref)
			if m := c.members[worker]; m != nil {
				delete(m.shards, ref)
			}
		}
	}
}

// Status returns a campaign's persisted view overlaid with live
// assignments.
func (c *Coordinator) Status(id string) (Status, bool) {
	st, ok := c.store.Status(id)
	if !ok {
		return Status{}, false
	}
	c.mu.Lock()
	c.expireLocked(c.now())
	for i := range st.Shards {
		if w, ok := c.assigned[ShardRef{CampaignID: id, Shard: st.Shards[i].Shard}]; ok {
			st.Shards[i].Worker = w
		}
	}
	st.Workers = len(c.members)
	c.mu.Unlock()
	return st, true
}

// List returns every campaign's status, sorted by ID.
func (c *Coordinator) List() []Status {
	var out []Status
	for _, id := range c.store.Campaigns() {
		if st, ok := c.Status(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// Checkpoints returns a campaign's checkpoint history, if it exists.
func (c *Coordinator) Checkpoints(id string) ([]CheckpointMeta, bool) {
	if _, ok := c.store.State(id); !ok {
		return nil, false
	}
	return c.store.History(id), true
}

// Register implements Control.
func (c *Coordinator) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	if req.WorkerID == "" {
		return RegisterResponse{}, fmt.Errorf("campaign: register without worker ID")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
	c.touchLocked(req.WorkerID, req.Capacity)
	return RegisterResponse{LeaseTTL: c.ttl}, nil
}

// touchLocked creates or renews a member's lease.
func (c *Coordinator) touchLocked(id string, capacity int) *member {
	if capacity <= 0 {
		capacity = 1
	}
	m := c.members[id]
	if m == nil {
		m = &member{id: id, shards: make(map[ShardRef]bool)}
		c.members[id] = m
	}
	m.capacity = capacity
	m.expires = c.now().Add(c.ttl)
	return m
}

// expireLocked retires members whose lease lapsed: their shards go back
// to pending and the attempt is persisted — the durable trail the issue
// calls "persists attempt state".
//
// Before expiring anyone it checks the clock itself: a step larger
// than MaxClockJump since the previous scan (in either direction)
// cannot be explained by heartbeat cadence, so it is absorbed by
// re-arming every live lease rather than punishing workers for the
// coordinator's clock.
func (c *Coordinator) expireLocked(now time.Time) {
	if c.maxJump > 0 && !c.lastTick.IsZero() {
		if jump := now.Sub(c.lastTick); jump > c.maxJump || jump < -c.maxJump {
			fresh := now.Add(c.ttl)
			for _, m := range c.members {
				if m.expires.Before(fresh) {
					m.expires = fresh
				}
			}
			c.skewEvents++
		}
	}
	c.lastTick = now
	for id, m := range c.members {
		if now.Before(m.expires) {
			continue
		}
		delete(c.members, id)
		for ref := range m.shards {
			delete(c.assigned, ref)
			if st, _ := c.store.State(ref.CampaignID); st != StateRunning {
				continue
			}
			attempts := c.store.Attempts(ref.CampaignID, ref.Shard) + 1
			// Best-effort: an append failure must not wedge scheduling.
			_ = c.store.PutAttempt(ref.CampaignID, AttemptRecord{
				Shard:    ref.Shard,
				Worker:   id,
				Attempts: attempts,
				Reason:   "lease expired",
				Time:     now.UTC(),
			})
			c.pending[ref] = true
		}
	}
}

// SkewEvents reports how many clock anomalies (Now() steps larger than
// MaxClockJump between expiry scans) the coordinator has absorbed.
func (c *Coordinator) SkewEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skewEvents
}

// Heartbeat implements Control: lease renewal, report ingestion,
// reconciliation and assignment, in that order.
func (c *Coordinator) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	if req.WorkerID == "" {
		return HeartbeatResponse{}, fmt.Errorf("campaign: heartbeat without worker ID")
	}

	// Ingest reports before taking scheduling decisions, so a solution in
	// this very heartbeat cancels the campaign's other shards below.
	for _, cp := range req.Checkpoints {
		c.ingestCheckpoint(cp)
	}
	for i := range req.Solutions {
		c.ingestSolution(req.Solutions[i])
	}

	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	c.expireDeadlinesLocked(now)
	m := c.touchLocked(req.WorkerID, req.Capacity)

	resp := HeartbeatResponse{LeaseTTL: c.ttl}

	// Reconcile what the worker says it runs against what this
	// coordinator believes.
	reported := make(map[ShardRef]bool, len(req.Running))
	for _, ref := range req.Running {
		reported[ref] = true
		owner, isAssigned := c.assigned[ref]
		st, known := c.store.State(ref.CampaignID)
		switch {
		case !known || st != StateRunning:
			resp.Cancel = append(resp.Cancel, ref)
		case isAssigned && owner == req.WorkerID:
			// Consistent; nothing to do.
		case !isAssigned:
			// Adoption: this coordinator (freshly restarted) marked the
			// shard pending, but a live worker is already walking it.
			delete(c.pending, ref)
			c.assigned[ref] = req.WorkerID
			m.shards[ref] = true
		default:
			// Someone else owns it — the reporter is a stale duplicate.
			resp.Cancel = append(resp.Cancel, ref)
		}
	}
	// Drop bookkeeping for shards the worker no longer reports (it was
	// told to cancel, or the shard solved and its task exited).
	for ref := range m.shards {
		if !reported[ref] {
			delete(m.shards, ref)
			if c.assigned[ref] == req.WorkerID {
				delete(c.assigned, ref)
				if st, _ := c.store.State(ref.CampaignID); st == StateRunning {
					c.pending[ref] = true
				}
			}
		}
	}

	// Hand out pending shards up to the worker's capacity, in a sorted
	// deterministic order.
	if free := m.capacity - len(m.shards); free > 0 && len(c.pending) > 0 {
		refs := make([]ShardRef, 0, len(c.pending))
		for ref := range c.pending {
			refs = append(refs, ref)
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].CampaignID != refs[j].CampaignID {
				return refs[i].CampaignID < refs[j].CampaignID
			}
			return refs[i].Shard < refs[j].Shard
		})
		for _, ref := range refs {
			if free == 0 {
				break
			}
			spec, ok := c.store.Spec(ref.CampaignID)
			if !ok {
				delete(c.pending, ref)
				continue
			}
			asg := Assignment{Spec: spec, Shard: ref.Shard}
			if cp, ok := c.store.Latest(ref.CampaignID, ref.Shard); ok {
				asg.Resume = &cp
			}
			delete(c.pending, ref)
			c.assigned[ref] = req.WorkerID
			m.shards[ref] = true
			resp.Assign = append(resp.Assign, asg)
			free--
		}
	}
	return resp, nil
}

// ingestCheckpoint persists a reported checkpoint if it advances its
// shard. The epoch guard makes redelivery (a worker retrying a heartbeat
// the coordinator half-processed) idempotent.
func (c *Coordinator) ingestCheckpoint(cp Checkpoint) {
	if st, ok := c.store.State(cp.CampaignID); !ok || st != StateRunning {
		return
	}
	if cp.Epoch <= c.store.LatestEpoch(cp.CampaignID, cp.Shard) {
		return
	}
	_ = c.store.PutCheckpoint(cp)
}

// ingestSolution ends a campaign on its first reported solution; the
// campaign's other shards are retired and cancelled at their owners'
// next heartbeats.
func (c *Coordinator) ingestSolution(sol Solution) {
	if st, ok := c.store.State(sol.CampaignID); !ok || st != StateRunning {
		return
	}
	if err := c.store.PutState(sol.CampaignID, StateSolved, "", &sol); err != nil {
		return
	}
	c.retire(sol.CampaignID)
}

// expireDeadlinesLocked cancels campaigns past their deadline. Called
// with c.mu held; releases and reacquires nothing (store has its own
// lock), but retiring needs c.mu, so inline the retire logic here.
func (c *Coordinator) expireDeadlinesLocked(now time.Time) {
	for _, id := range c.store.Campaigns() {
		st, _ := c.store.State(id)
		if st != StateRunning {
			continue
		}
		spec, _ := c.store.Spec(id)
		if spec.Deadline.IsZero() || now.Before(spec.Deadline) {
			continue
		}
		if err := c.store.PutState(id, StateCancelled, "deadline", nil); err != nil {
			continue
		}
		for ref := range c.pending {
			if ref.CampaignID == id {
				delete(c.pending, ref)
			}
		}
		for ref, worker := range c.assigned {
			if ref.CampaignID == id {
				delete(c.assigned, ref)
				if m := c.members[worker]; m != nil {
					delete(m.shards, ref)
				}
			}
		}
	}
}
