// Package session turns CopyCat from a one-workspace library into a
// hostable multi-tenant service. Every piece of mutable state a user
// accumulates — imported relations, learned semantic types, MIRA edge
// weights, the plan cache, the decision log, quality counters — already
// hangs off one workspace.Workspace; this package wraps that state in a
// Session handle and hosts thousands of them behind a Manager with:
//
//   - create/attach/snapshot/evict lifecycle (attach pins a session for
//     exclusive use; release unpins it);
//   - bounded aggregate memory: when the resident estimate crosses the
//     budget the least-recently-used unpinned session is serialized to a
//     persist snapshot and dropped, then transparently reloaded on its
//     next attach;
//   - admission control wired to the host SLO substrate: when the
//     fast-burn alert on the aggregate suggest-refresh objective fires
//     (or the session table is full, or a majority of host breakers are
//     open), new sessions are shed with ErrOverloaded/ErrCapacity and
//     the telemetry server's /readyz flips to 503.
//
// The single-workspace facade (copycat.System) wraps one standalone
// Session, so the library API and the hosted service share one state
// model.
package session

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/obs"
	"copycat/internal/obs/flight"
	"copycat/internal/persist"
	"copycat/internal/sourcegraph"
	"copycat/internal/workspace"
)

// Lifecycle errors. ErrCapacity and ErrOverloaded are admission
// rejections (the caller should retry later or elsewhere); ErrBusy
// means the session is pinned by another holder right now.
var (
	ErrNotFound   = errors.New("session: not found")
	ErrBusy       = errors.New("session: busy")
	ErrCapacity   = errors.New("session: at capacity")
	ErrOverloaded = errors.New("session: host overloaded")
	ErrNoSnapshot = errors.New("session: no snapshot to reload")
)

// State is everything a session owns: the workspace (tabs, learners,
// caches, logs) plus the catalog and type library it was
// built over. A Factory produces a fresh State per session; Restore
// replays a persisted snapshot into a fresh one.
type State struct {
	Workspace *workspace.Workspace
	Catalog   *catalog.Catalog
	Types     *modellearn.Library
}

// Factory builds a fresh, empty State: catalog with services
// registered, trained type library, new workspace. The manager calls it
// on Create and again on every reload (services are functions and are
// not serialized — the factory re-registers them, then Restore replays
// the snapshot on top).
type Factory func() (*State, error)

// Snapshot serializes the state with the v2 persist format: relations,
// types, learned edge costs, the workspace surface, and the plan-cache
// counters. The event stream (and with it the SLO windows) is not
// session state: a hosted session publishes on the host's stream, which
// outlives its evictions.
func (st *State) Snapshot() ([]byte, error) {
	extras := &persist.Extras{Workspace: persist.DumpWorkspace(st.Workspace)}
	if pc := st.Workspace.PlanCache; pc != nil {
		h, m, e := pc.Stats()
		extras.PlanCache = &persist.CacheCounters{Hits: h, Misses: m, Evictions: e}
	}
	q := st.Workspace.Quality.Snapshot()
	extras.Quality = &q
	return persist.SaveState(st.Catalog, st.Types, st.Workspace.Int.Graph, extras)
}

// Restore replays a snapshot (v1 or v2) into this state: relations and
// types merge into the catalog/library, the source graph re-discovers
// its associations, learned edge costs re-attach to both the graph and
// the MIRA learner, the workspace surface (tabs, mode) is rebuilt, and
// the plan-cache counters carry forward. The cache contents start cold;
// incremental refresh re-fills them (warm and cold refreshes are
// output-equivalent, so the reload is invisible in the suggestions).
func (st *State) Restore(data []byte) error {
	r, err := persist.LoadState(data, st.Catalog, st.Types)
	if err != nil {
		return err
	}
	ws := st.Workspace
	ws.Int.Graph.Discover(sourcegraph.DefaultOptions())
	persist.ApplyCosts(ws.Int.Graph, r.EdgeCosts)
	for id, c := range r.EdgeCosts {
		ws.Int.Mira.SetWeight(id, c)
	}
	persist.RestoreWorkspace(ws, r.Workspace)
	if r.PlanCache != nil && ws.PlanCache != nil {
		ws.PlanCache.RestoreStats(r.PlanCache.Hits, r.PlanCache.Misses, r.PlanCache.Evictions)
	}
	if r.Quality != nil {
		ws.Quality.Restore(*r.Quality)
	}
	return nil
}

// refreshes counts the suggestion refreshes the resident workspace ran
// (0 while evicted).
func (st *State) refreshes() int64 {
	if st == nil {
		return 0
	}
	return st.Workspace.Refreshes()
}

// sessionBaseBytes is the per-session overhead estimate (learners,
// graph, registries) added on top of the data-proportional terms.
const sessionBaseBytes = 64 << 10

// SizeEstimate approximates the resident footprint in bytes — catalog
// rows, workspace tabs, plan-cache entries, decision-log length — for
// the manager's aggregate memory accounting. It is an estimate used for
// LRU budgeting, not an exact heap measurement.
func (st *State) SizeEstimate() int64 {
	n := int64(sessionBaseBytes)
	if st.Catalog != nil {
		for _, src := range st.Catalog.All() {
			if src.Rel != nil {
				n += int64(len(src.Rel.Schema)+1) * int64(len(src.Rel.Rows)+1) * 64
			}
		}
	}
	if ws := st.Workspace; ws != nil {
		for _, t := range ws.Tabs() {
			n += int64(len(t.Schema)+1) * int64(len(t.Rows)+1) * 64
		}
		if ws.PlanCache != nil {
			n += int64(ws.PlanCache.Len()) * 4096
		}
		n += int64(ws.Decisions.Len()) * 256
	}
	return n
}

// Session is the handle all mutable CopyCat state hangs off. A session
// is either resident (its State in memory) or evicted (its State
// serialized in the manager's Store); Acquire pins it resident,
// reloading transparently if needed, and Release unpins it.
//
// The pin is a real mutex held across the acquire→release window:
// exactly one holder drives a session's workspace at a time (the
// workspace itself is not internally synchronized), and the evictor
// only TryLocks, so a pinned session is never snapshotted mid-use.
type Session struct {
	id     string
	tenant string
	mgr    *Manager // nil for standalone (single-workspace facade)

	// useMu is the pin; held from Acquire to Release.
	useMu sync.Mutex

	mu        sync.Mutex // guards the fields below (lock order: mgr.mu → mu)
	st        *State     // nil while evicted
	refreshes int64      // suggestion refreshes of evicted incarnations
	created   time.Time
	lastUsed  time.Time
	bytes     int64 // last size estimate while resident
	reloads   int64
	evictions int64
	destroyed bool
}

// NewStandalone wraps a State in an unmanaged session handle: no
// manager, never evicted, Release is a no-op. The workspace gets a
// stream of its own, on its clock, with a flight recorder attached.
// The copycat.System facade is exactly this — one standalone session.
func NewStandalone(id string, st *State) *Session {
	ws := st.Workspace
	stream := obs.NewStream(ws.Clock())
	flight.New(stream, flight.Config{Metrics: ws.MetricsSnapshot, Registry: ws.Metrics})
	ws.SetStream(stream)
	now := time.Now()
	return &Session{id: id, st: st, created: now, lastUsed: now}
}

// ID returns the session's handle ID (unique within its manager).
func (s *Session) ID() string { return s.id }

// Tenant returns the tenant label the session was created under.
func (s *Session) Tenant() string { return s.tenant }

// State returns the session's resident state. Only valid while the
// session is pinned (between Acquire and Release) or standalone; the
// evictor may drop an unpinned session's state at any time.
func (s *Session) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Release unpins the session: its footprint estimate and recency are
// refreshed in the manager's accounting, and it becomes eligible for
// LRU eviction again. No-op on standalone sessions.
func (s *Session) Release() {
	if s.mgr == nil {
		return
	}
	s.mgr.release(s)
}

// Info is a point-in-time description of one session for /sessions and
// the REPL's :session list.
type Info struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant,omitempty"`
	Resident  bool      `json:"resident"`
	Bytes     int64     `json:"bytes"`
	Refreshes int64     `json:"refreshes"`
	Reloads   int64     `json:"reloads"`
	Evictions int64     `json:"evictions"`
	Created   time.Time `json:"created"`
	LastUsed  time.Time `json:"last_used"`
}

func (s *Session) info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		ID:        s.id,
		Tenant:    s.tenant,
		Resident:  s.st != nil,
		Bytes:     s.bytes,
		Refreshes: s.refreshes + s.st.refreshes(),
		Reloads:   s.reloads,
		Evictions: s.evictions,
		Created:   s.created,
		LastUsed:  s.lastUsed,
	}
}

// String renders one :session list line.
func (i Info) String() string {
	state := "evicted"
	if i.Resident {
		state = "resident"
	}
	return fmt.Sprintf("%-10s %-10s %-8s %8dB refreshes=%d reloads=%d evictions=%d",
		i.ID, i.Tenant, state, i.Bytes, i.Refreshes, i.Reloads, i.Evictions)
}
