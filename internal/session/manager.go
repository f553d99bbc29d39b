package session

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"copycat/internal/obs"
	"copycat/internal/obs/flight"
	"copycat/internal/resilience"
)

// Config sizes and wires a Manager. Zero values mean "unlimited" for
// the caps and "defaults" for the substrate handles; only Factory is
// required.
type Config struct {
	// Factory builds the state for new sessions and for reloads.
	Factory Factory
	// MaxSessions caps the total session count (resident + evicted).
	// Creates beyond it are shed with ErrCapacity. 0 = unlimited.
	MaxSessions int
	// MaxResident caps how many sessions may be resident at once; the
	// LRU overflow is evicted to the Store. 0 = unlimited.
	MaxResident int
	// MemoryBudget bounds the aggregate resident size estimate in
	// bytes; crossing it evicts LRU sessions until back under. 0 =
	// unlimited.
	MemoryBudget int64
	// TenantResidentQuota is the per-tenant resident allowance the
	// evictor protects: while any tenant holds more resident sessions
	// than the quota, victims are picked from the most-over-quota
	// tenant first (LRU within it), so one noisy tenant's create storm
	// cannot flush quiet tenants' sessions below their quota. When no
	// tenant is over quota the evictor falls back to global LRU. 0
	// disables fairness (pure global LRU).
	TenantResidentQuota int
	// Store receives eviction snapshots; nil installs a MemStore. A
	// store that can enumerate its snapshots (ListingStore, e.g.
	// FileStore) turns construction into crash recovery: NewManager
	// re-registers every on-disk session as evicted, so Acquire after
	// a restart transparently reloads it.
	Store Store
	// Clock is the host clock: recency stamps, the host stream (SLO
	// windows, event and incident stamps), and the stage timing of every
	// hosted workspace without a clock of its own. nil means the wall
	// clock; inject an obs.VirtualClock for deterministic admission
	// tests. The host stream's SLO fast-burn alert is the load-shedding
	// signal.
	Clock obs.Clock
	// Breakers optionally exposes host-level circuit breaker state to
	// admission control: a majority-open fleet sheds new sessions.
	Breakers func() []resilience.BreakerStatus
	// EnableTracing turns on span recording in every hosted workspace;
	// all sessions publish their spans on the host stream, tagged with
	// their session ID.
	EnableTracing bool
	// IncidentDir, when set, makes the host flight recorder persist
	// incident bundles to this directory (bounded; oldest pruned).
	IncidentDir string
}

// Manager hosts many concurrent sessions: it creates them from the
// factory, pins them for exclusive use on Acquire, keeps the aggregate
// resident footprint within budget by LRU-evicting unpinned sessions to
// the Store, reloads evicted sessions transparently on their next
// Acquire, and sheds new sessions when the host is overloaded.
type Manager struct {
	cfg     Config
	store   Store
	metrics *obs.Registry
	// stream is the host event stream every hosted workspace publishes
	// on through its own handle (wire): its SLO tracker is the
	// admission signal, it folds stage latencies and quality events
	// into host-level series, and the host flight recorder reads its
	// timeline.
	stream *obs.Stream
	flight *flight.Recorder
	// decisions is the host-level decision log: manager lifecycle
	// decisions (which session failed to evict, and why) that belong to
	// no single workspace.
	decisions *obs.DecisionLog

	created     atomic.Int64
	evictions   atomic.Int64
	reloads     atomic.Int64
	rejected    atomic.Int64
	evictErrors atomic.Int64
	recovered   atomic.Int64

	mu            sync.Mutex // lock order: mu → Session.mu; never inverted
	sessions      map[string]*Session
	seq           int64
	residentCount int
	residentBytes int64
}

// NewManager builds a manager. It panics if cfg.Factory is nil — a
// manager without a way to build state is a programming error, not a
// runtime condition.
func NewManager(cfg Config) *Manager {
	if cfg.Factory == nil {
		panic("session: Config.Factory is required")
	}
	m := &Manager{
		cfg:       cfg,
		store:     cfg.Store,
		metrics:   obs.NewRegistry(),
		decisions: obs.NewDecisionLog(),
		sessions:  map[string]*Session{},
	}
	if m.store == nil {
		m.store = NewMemStore()
	}
	m.stream = obs.NewHostStream(cfg.Clock, m.metrics)
	m.flight = flight.New(m.stream, flight.Config{
		Metrics:  m.MetricsSnapshot,
		Registry: m.metrics,
		Dir:      cfg.IncidentDir,
	})
	m.decisions.SetStream(m.stream)
	if fs, ok := m.store.(*FileStore); ok {
		fs.setStream(m.stream)
	}
	m.recover()
	return m
}

// recover re-registers every snapshot the store already holds as an
// evicted session — the crash-recovery path for durable stores. It is
// a no-op for stores that can't enumerate themselves (MemStore). The
// ID sequence advances past the recovered IDs so new creates never
// collide with on-disk sessions.
func (m *Manager) recover() {
	ls, ok := m.store.(ListingStore)
	if !ok {
		return
	}
	ids, err := ls.List()
	if err != nil {
		return
	}
	ms, hasMeta := m.store.(MetaStore)
	now := m.now()
	m.mu.Lock()
	for _, id := range ids {
		if _, exists := m.sessions[id]; exists {
			continue
		}
		s := &Session{id: id, mgr: m, created: now, lastUsed: now}
		if hasMeta {
			if meta, ok := ms.Meta(id); ok {
				s.tenant = meta.Tenant
				if !meta.Created.IsZero() {
					s.created = meta.Created
				}
			}
		}
		m.sessions[id] = s
		var n int64
		if _, err := fmt.Sscanf(id, "s%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		m.recovered.Add(1)
	}
	m.mu.Unlock()
}

func (m *Manager) now() time.Time { return m.stream.Now() }

// Stream exposes the host event stream: its SLO status is the
// admission objective (aggregate suggest-refresh latency across every
// hosted session), and its ring holds every session's spans (carrying
// a "session" attribute), decisions, and lifecycle events.
func (m *Manager) Stream() *obs.Stream { return m.stream }

// Store exposes the snapshot store (tests inspect it).
func (m *Manager) Store() Store { return m.store }

// Flight exposes the host flight recorder (always-on incident capture
// shared by every hosted session).
func (m *Manager) Flight() *flight.Recorder { return m.flight }

// Decisions exposes the host-level decision log (manager lifecycle
// decisions such as eviction-failure attribution).
func (m *Manager) Decisions() *obs.DecisionLog { return m.decisions }

// wire points a freshly built (or reloaded) state at this host: every
// publisher of the workspace moves to a handle on the host stream that
// attributes its events to the session and tenant.
func (m *Manager) wire(s *Session, st *State) {
	st.Workspace.SetStream(m.stream.For(s.id, s.tenant))
	if m.cfg.EnableTracing {
		st.Workspace.EnableTracing()
	}
}

// Create admits and builds a new session for a tenant. The returned
// session is already pinned (as if Acquired) — use its State, then
// Release it. Sheds with ErrOverloaded when the host SLO fast-burn
// alert fires (or a breaker majority is open) and with ErrCapacity when
// the session table is full.
func (m *Manager) Create(tenant string) (*Session, error) {
	if shedding, reason := m.Shedding(); shedding {
		m.rejected.Add(1)
		m.noteShed(tenant, reason)
		return nil, fmt.Errorf("%w: %s", shedErr(reason), reason)
	}
	st, err := m.cfg.Factory()
	if err != nil {
		return nil, fmt.Errorf("session: factory: %w", err)
	}
	now := m.now()
	s := &Session{tenant: tenant, st: st, created: now, lastUsed: now}
	s.mgr = m
	s.useMu.Lock() // pin before publishing so the evictor can't race us
	m.mu.Lock()
	// Re-verify capacity at insert time: the Shedding() check above ran
	// before the factory, and concurrent Creates may have filled the
	// table since — without this recheck a create race exceeds the cap.
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		s.useMu.Unlock()
		m.rejected.Add(1)
		m.noteShed(tenant, reasonCapacity)
		return nil, fmt.Errorf("%w: %s", ErrCapacity, reasonCapacity)
	}
	m.seq++
	s.id = fmt.Sprintf("s%06d", m.seq)
	s.bytes = st.SizeEstimate()
	m.sessions[s.id] = s
	m.residentCount++
	m.residentBytes += s.bytes
	m.mu.Unlock()
	m.wire(s, st)
	m.created.Add(1)
	m.evictToBudget()
	return s, nil
}

// Acquire pins a session for exclusive use, blocking while another
// holder has it. An evicted session is transparently reloaded from its
// snapshot: the factory rebuilds services and builtins, then the
// snapshot replays relations, types, edge weights, tabs, and cache
// counters on top. Callers must Release when done.
func (m *Manager) Acquire(id string) (*Session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, ErrNotFound
	}
	s.useMu.Lock()
	s.mu.Lock()
	destroyed, evicted := s.destroyed, s.st == nil
	s.mu.Unlock()
	if destroyed {
		s.useMu.Unlock()
		return nil, ErrNotFound
	}
	if evicted {
		if err := m.reload(s); err != nil {
			s.useMu.Unlock()
			return nil, err
		}
	}
	s.mu.Lock()
	s.lastUsed = m.now()
	s.mu.Unlock()
	return s, nil
}

// reload rebuilds an evicted session's state from its snapshot; the
// caller holds s.useMu.
func (m *Manager) reload(s *Session) error {
	data, ok, err := m.store.Load(s.id)
	if err != nil {
		return fmt.Errorf("session %s: load snapshot: %w", s.id, err)
	}
	if !ok {
		return fmt.Errorf("session %s: %w", s.id, ErrNoSnapshot)
	}
	st, err := m.cfg.Factory()
	if err != nil {
		return fmt.Errorf("session %s: factory: %w", s.id, err)
	}
	if err := st.Restore(data); err != nil {
		return fmt.Errorf("session %s: restore: %w", s.id, err)
	}
	m.wire(s, st)
	size := st.SizeEstimate()
	m.mu.Lock()
	s.mu.Lock()
	s.st = st
	s.bytes = size
	s.reloads++
	m.residentCount++
	m.residentBytes += size
	s.mu.Unlock()
	m.mu.Unlock()
	m.reloads.Add(1)
	m.evictToBudget()
	return nil
}

// release is Session.Release: refresh the footprint estimate and
// recency, unpin, and rebalance the budget.
func (m *Manager) release(s *Session) {
	var size int64
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	if st != nil {
		size = st.SizeEstimate() // outside locks; the holder still pins the state
	}
	m.mu.Lock()
	s.mu.Lock()
	if s.st != nil {
		m.residentBytes += size - s.bytes
		s.bytes = size
	}
	s.lastUsed = m.now()
	s.mu.Unlock()
	m.mu.Unlock()
	s.useMu.Unlock()
	m.evictToBudget()
}

// Evict snapshots a session to the store and drops its resident state.
// Returns ErrBusy if the session is currently pinned (the evictor never
// blocks behind a holder), and nil if the session is already evicted.
func (m *Manager) Evict(id string) error {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return ErrNotFound
	}
	if !s.useMu.TryLock() {
		return ErrBusy
	}
	defer s.useMu.Unlock()
	s.mu.Lock()
	destroyed := s.destroyed
	s.mu.Unlock()
	if destroyed {
		return ErrNotFound
	}
	return m.evict(s)
}

// evict does the snapshot-and-drop; the caller holds s.useMu. A
// snapshot or store failure leaves the session resident (state loss is
// worse than budget overshoot).
func (m *Manager) evict(s *Session) error {
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	if st == nil {
		return nil // already evicted
	}
	data, err := st.Snapshot()
	if err != nil {
		return fmt.Errorf("session %s: snapshot: %w", s.id, err)
	}
	if ms, ok := m.store.(MetaStore); ok {
		s.mu.Lock()
		meta := SnapshotMeta{Tenant: s.tenant, Created: s.created}
		s.mu.Unlock()
		ms.SetMeta(s.id, meta)
	}
	if err := m.store.Save(s.id, data); err != nil {
		return fmt.Errorf("session %s: save snapshot: %w", s.id, err)
	}
	m.mu.Lock()
	s.mu.Lock()
	s.refreshes += s.st.refreshes()
	s.st = nil
	s.evictions++
	m.residentCount--
	m.residentBytes -= s.bytes
	s.bytes = 0
	s.mu.Unlock()
	m.mu.Unlock()
	m.evictions.Add(1)
	m.stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: obs.EventEvict,
		Session: s.id, Tenant: s.Tenant(), Detail: "evicted to store"})
	return nil
}

// noteShed publishes an admission-control rejection.
func (m *Manager) noteShed(tenant, reason string) {
	m.stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: obs.EventShed, Tenant: tenant, Detail: reason})
}

// noteEvictFailure attributes a failed eviction: the victim's session
// and tenant IDs go to the host decision log (so operators can see
// *which* session failed to evict, not just that sessions.evict_errors
// moved) and onto the host stream, where the flight recorder's
// evict-error trigger captures an incident bundle. Callers must not
// hold m.mu.
func (m *Manager) noteEvictFailure(s *Session, err error) {
	tenant := s.Tenant()
	m.decisions.Record(obs.Decision{
		Stage:     "session.evict",
		Candidate: s.id,
		Session:   s.id,
		Action:    obs.ActionDropped,
		Reason:    fmt.Sprintf("tenant %q: %v", tenant, err),
		Rank:      -1,
	})
	m.stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: obs.EventEvictError,
		Session: s.id, Tenant: tenant, Detail: err.Error()})
}

// Destroy removes a session entirely: waits for any holder to release,
// drops its state, and deletes its snapshot. The ID is not reused.
func (m *Manager) Destroy(id string) error {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return ErrNotFound
	}
	s.useMu.Lock()
	m.mu.Lock()
	s.mu.Lock()
	if s.destroyed {
		s.mu.Unlock()
		m.mu.Unlock()
		s.useMu.Unlock()
		return ErrNotFound
	}
	if s.st != nil {
		m.residentCount--
		m.residentBytes -= s.bytes
	}
	s.st = nil
	s.bytes = 0
	s.destroyed = true
	delete(m.sessions, s.id)
	s.mu.Unlock()
	m.mu.Unlock()
	s.useMu.Unlock()
	return m.store.Delete(id)
}

// evictToBudget evicts unpinned sessions until the resident count and
// byte estimate are back under their caps. Pinned sessions are skipped
// (TryLock), so a fully pinned fleet can transiently exceed the budget
// — it converges as holders release. A victim whose snapshot or store
// write fails stays resident (state loss is worse than budget
// overshoot) but does not abort the sweep: its recency is touched so
// the LRU order doesn't immediately re-pick it, the failure is counted
// in sessions.evict_errors, and the sweep moves on to the next victim.
func (m *Manager) evictToBudget() {
	var failed map[*Session]bool
	for {
		victim := m.pickVictim(failed)
		if victim == nil {
			return
		}
		err := m.evict(victim)
		if err != nil {
			m.evictErrors.Add(1)
			victim.mu.Lock()
			victim.lastUsed = m.now()
			victim.mu.Unlock()
			m.noteEvictFailure(victim, err)
			if failed == nil {
				failed = map[*Session]bool{}
			}
			failed[victim] = true
		}
		victim.useMu.Unlock()
	}
}

// pickVictim returns the next resident session to evict, or nil when
// the budget is satisfied or every candidate is busy or excluded. The
// returned session's useMu is held.
//
// Victim order: with TenantResidentQuota set and at least one tenant
// over its quota, only over-quota tenants' sessions are candidates,
// most-over-quota tenant first, LRU within it — an over-quota storm
// pays for its own evictions instead of flushing quiet tenants.
// Otherwise (no quota, or everyone within quota) plain global LRU.
func (m *Manager) pickVictim(exclude map[*Session]bool) *Session {
	m.mu.Lock()
	over := (m.cfg.MaxResident > 0 && m.residentCount > m.cfg.MaxResident) ||
		(m.cfg.MemoryBudget > 0 && m.residentBytes > m.cfg.MemoryBudget)
	if !over {
		m.mu.Unlock()
		return nil
	}
	type cand struct {
		s        *Session
		tenant   string
		lastUsed time.Time
	}
	cands := make([]cand, 0, m.residentCount)
	residents := map[string]int{} // resident count per tenant, pinned included
	for _, s := range m.sessions {
		s.mu.Lock()
		if s.st != nil && !s.destroyed {
			residents[s.tenant]++
			if !exclude[s] {
				cands = append(cands, cand{s, s.tenant, s.lastUsed})
			}
		}
		s.mu.Unlock()
	}
	m.mu.Unlock()
	overage := func(tenant string) int {
		if m.cfg.TenantResidentQuota <= 0 {
			return 0
		}
		if d := residents[tenant] - m.cfg.TenantResidentQuota; d > 0 {
			return d
		}
		return 0
	}
	anyOver := false
	for t := range residents {
		if overage(t) > 0 {
			anyOver = true
			break
		}
	}
	if anyOver {
		// Hard fairness: while someone is over quota, within-quota
		// tenants' sessions are not victims at all — even if every
		// over-quota candidate is pinned right now, we leave the budget
		// transiently exceeded and converge on a later sweep.
		kept := cands[:0]
		for _, c := range cands {
			if overage(c.tenant) > 0 {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	sort.Slice(cands, func(i, j int) bool {
		if oi, oj := overage(cands[i].tenant), overage(cands[j].tenant); oi != oj {
			return oi > oj
		}
		if !cands[i].lastUsed.Equal(cands[j].lastUsed) {
			return cands[i].lastUsed.Before(cands[j].lastUsed)
		}
		return cands[i].s.id < cands[j].s.id
	})
	for _, c := range cands {
		if !c.s.useMu.TryLock() {
			continue
		}
		c.s.mu.Lock()
		ok := c.s.st != nil && !c.s.destroyed
		c.s.mu.Unlock()
		if ok {
			return c.s
		}
		c.s.useMu.Unlock()
	}
	return nil
}

// Checkpoint evicts every resident, unpinned session to the store —
// the graceful-shutdown path of a durable host, and the bulk step of
// the durability benchmark. It returns how many sessions were evicted;
// failures don't abort the sweep (they're counted in
// sessions.evict_errors) and the first one is returned. Pinned
// sessions are skipped.
func (m *Manager) Checkpoint() (int, error) {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return ss[i].id < ss[j].id })
	n := 0
	var firstErr error
	for _, s := range ss {
		if !s.useMu.TryLock() {
			continue
		}
		s.mu.Lock()
		resident := s.st != nil && !s.destroyed
		s.mu.Unlock()
		if !resident {
			s.useMu.Unlock()
			continue
		}
		err := m.evict(s)
		s.useMu.Unlock()
		if err != nil {
			m.evictErrors.Add(1)
			m.noteEvictFailure(s, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	return n, firstErr
}

// shedErr maps a shed reason to its sentinel error.
func shedErr(reason string) error {
	if reason == reasonCapacity {
		return ErrCapacity
	}
	return ErrOverloaded
}

const reasonCapacity = "session table full"

// softShedding evaluates the table-independent shed signals (SLO
// fast-burn, breaker majority); both have their own synchronization,
// so this runs outside m.mu.
func (m *Manager) softShedding() (bool, string) {
	if st := m.stream.SLO(); st.FastAlert {
		return true, fmt.Sprintf("SLO fast-burn alert (burn %.1f× budget)", st.FastBurn)
	}
	if m.cfg.Breakers != nil {
		if bs := m.cfg.Breakers(); resilience.MajorityOpen(bs) {
			return true, fmt.Sprintf("%d of %d breakers open", resilience.CountOpen(bs), len(bs))
		}
	}
	return false, ""
}

// sheddingCapacityLocked is the table-full check against a table size
// read under m.mu — Stats uses it so the shed flag and the session
// count come from the same locked snapshot.
func (m *Manager) sheddingCapacityLocked(tableLen int) bool {
	return m.cfg.MaxSessions > 0 && tableLen >= m.cfg.MaxSessions
}

// Shedding reports whether admission control is currently rejecting new
// sessions, and why: the host SLO fast-burn alert, a majority of host
// breakers open, or the session table at MaxSessions.
func (m *Manager) Shedding() (bool, string) {
	if shedding, reason := m.softShedding(); shedding {
		return shedding, reason
	}
	m.mu.Lock()
	full := m.sheddingCapacityLocked(len(m.sessions))
	m.mu.Unlock()
	if full {
		return true, reasonCapacity
	}
	return false, ""
}

// List describes every session, sorted by ID.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	infos := make([]Info, len(ss))
	for i, s := range ss {
		infos[i] = s.info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Get describes one session.
func (m *Manager) Get(id string) (Info, bool) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return Info{}, false
	}
	return s.info(), true
}

// HostStats is the manager-level counter block for /metrics, scpbench,
// and the capacity experiment.
type HostStats struct {
	Sessions      int    `json:"sessions"`
	Resident      int    `json:"resident"`
	ResidentBytes int64  `json:"resident_bytes"`
	MemoryBudget  int64  `json:"memory_budget,omitempty"`
	Created       int64  `json:"created"`
	Evictions     int64  `json:"evictions"`
	EvictErrors   int64  `json:"evict_errors,omitempty"`
	Reloads       int64  `json:"reloads"`
	Recovered     int64  `json:"recovered,omitempty"`
	Rejected      int64  `json:"rejected"`
	Shedding      bool   `json:"shedding"`
	ShedReason    string `json:"shed_reason,omitempty"`
}

// Stats snapshots the host counters. The shedding flag and the session
// count are taken in one m.mu critical section, so a snapshot can
// never report capacity shedding alongside a below-cap table (or the
// reverse).
func (m *Manager) Stats() HostStats {
	shedding, reason := m.softShedding()
	m.mu.Lock()
	st := HostStats{
		Sessions:      len(m.sessions),
		Resident:      m.residentCount,
		ResidentBytes: m.residentBytes,
		MemoryBudget:  m.cfg.MemoryBudget,
	}
	if !shedding && m.sheddingCapacityLocked(st.Sessions) {
		shedding, reason = true, reasonCapacity
	}
	m.mu.Unlock()
	st.Created = m.created.Load()
	st.Evictions = m.evictions.Load()
	st.EvictErrors = m.evictErrors.Load()
	st.Reloads = m.reloads.Load()
	st.Recovered = m.recovered.Load()
	st.Rejected = m.rejected.Load()
	st.Shedding = shedding
	st.ShedReason = reason
	return st
}

// MetricsSnapshot folds the host registry (aggregate per-stage latency
// histograms across every session) and the lifecycle counters into one
// obs.Snapshot — the manager-level analogue of
// Workspace.MetricsSnapshot, consumed by the telemetry server.
func (m *Manager) MetricsSnapshot() obs.Snapshot {
	snap := m.metrics.Snapshot()
	st := m.Stats()
	snap.Counters["sessions.created"] = st.Created
	snap.Counters["sessions.evictions"] = st.Evictions
	snap.Counters["sessions.evict_errors"] = st.EvictErrors
	snap.Counters["sessions.reloads"] = st.Reloads
	snap.Counters["sessions.recovered"] = st.Recovered
	snap.Counters["sessions.admission_rejected"] = st.Rejected
	snap.Counters["spans.dropped"] = m.stream.Dropped()
	snap.Gauges["sessions.count"] = float64(st.Sessions)
	snap.Gauges["sessions.resident"] = float64(st.Resident)
	snap.Gauges["sessions.resident_bytes"] = float64(st.ResidentBytes)
	if st.MemoryBudget > 0 {
		snap.Gauges["sessions.memory_budget_bytes"] = float64(st.MemoryBudget)
	}
	if m.cfg.TenantResidentQuota > 0 {
		snap.Gauges["sessions.tenant_resident_quota"] = float64(m.cfg.TenantResidentQuota)
	}
	shed := 0.0
	if st.Shedding {
		shed = 1
	}
	snap.Gauges["sessions.shedding"] = shed
	if ss, ok := m.store.(StatsStore); ok {
		sst := ss.Stats()
		snap.Counters["sessions.store_load_errors"] = sst.LoadErrors
		snap.Counters["sessions.store_gc_removed"] = sst.GCRemoved
		snap.Gauges["sessions.store_snapshots"] = float64(sst.Snapshots)
		snap.Gauges["sessions.store_disk_bytes"] = float64(sst.DiskBytes)
		snap.Gauges["sessions.store_raw_bytes"] = float64(sst.RawBytes)
		snap.Gauges["sessions.store_compression_ratio"] = sst.CompressionRatio()
		snap.Gauges["sessions.store_quarantined"] = float64(sst.Quarantined)
		snap.Gauges["sessions.store_quarantine_files"] = float64(sst.QuarantineFiles)
	}
	m.stream.Quality().Fold(snap)
	return snap
}
