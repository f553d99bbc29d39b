package session_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"copycat/internal/obs"
	"copycat/internal/session"
	"copycat/internal/simuser"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
)

// demoFactory builds session states over one shared immutable world —
// the hosting shape the facade's DemoFactory uses.
func demoFactory(w *webworld.World) session.Factory {
	return func() (*session.State, error) {
		e := simuser.NewEnv(w, webworld.StyleTable)
		return &session.State{Workspace: e.WS, Catalog: e.WS.Cat, Types: e.WS.Types}, nil
	}
}

func testWorld() *webworld.World {
	cfg := webworld.DefaultConfig()
	cfg.Cities, cfg.SheltersPerCity = 3, 3
	return webworld.Generate(cfg)
}

// completionsDigest canonically renders a completion list so two
// refreshes can be compared for exact equivalence (ordering, targets,
// costs, result rows).
func completionsDigest(ws *workspace.Workspace) string {
	var b strings.Builder
	for _, c := range ws.RefreshColumnSuggestions() {
		fmt.Fprintf(&b, "%s→%s@%.9g[", c.Edge.ID, c.Target, c.Cost)
		for _, a := range c.Result.Rows {
			fmt.Fprintf(&b, "(%s)", strings.Join(a.Row.Texts(), "|"))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func mustImport(t *testing.T, w *webworld.World, st *session.State) {
	t.Helper()
	if err := simuser.ImportShelters(st.Workspace, w, webworld.StyleTable); err != nil {
		t.Fatalf("import: %v", err)
	}
}

func TestLifecycle(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{Factory: demoFactory(w)})

	s, err := m.Create("alice")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if s.ID() == "" || s.Tenant() != "alice" {
		t.Fatalf("bad identity: id=%q tenant=%q", s.ID(), s.Tenant())
	}
	mustImport(t, w, s.State())
	before := completionsDigest(s.State().Workspace)
	if before == "" {
		t.Fatal("no suggestions after import")
	}
	s.Release()

	// Explicit evict drops the state; the snapshot lands in the store.
	if err := m.Evict(s.ID()); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if info, _ := m.Get(s.ID()); info.Resident {
		t.Fatal("session still resident after Evict")
	}
	if ms, ok := m.Store().(*session.MemStore); ok && ms.Len() != 1 {
		t.Fatalf("store has %d snapshots, want 1", ms.Len())
	}

	// Attach transparently reloads.
	s2, err := m.Acquire(s.ID())
	if err != nil {
		t.Fatalf("Acquire after evict: %v", err)
	}
	if got := completionsDigest(s2.State().Workspace); got != before {
		t.Fatalf("suggestions changed across evict/reload:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	info, _ := m.Get(s.ID())
	if !info.Resident || info.Reloads != 1 || info.Evictions != 1 {
		t.Fatalf("unexpected info after reload: %+v", info)
	}
	s2.Release()

	if err := m.Destroy(s.ID()); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if _, err := m.Acquire(s.ID()); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("Acquire destroyed = %v, want ErrNotFound", err)
	}
	if st := m.Stats(); st.Sessions != 0 {
		t.Fatalf("sessions after destroy = %d, want 0", st.Sessions)
	}
}

func TestEvictBusySession(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{Factory: demoFactory(w)})
	s, err := m.Create("t")
	if err != nil {
		t.Fatal(err)
	}
	// s is still pinned (Create returns acquired).
	if err := m.Evict(s.ID()); !errors.Is(err, session.ErrBusy) {
		t.Fatalf("Evict pinned = %v, want ErrBusy", err)
	}
	s.Release()
	if err := m.Evict(s.ID()); err != nil {
		t.Fatalf("Evict released = %v", err)
	}
	// Evicting an already-evicted session is a no-op.
	if err := m.Evict(s.ID()); err != nil {
		t.Fatalf("Evict evicted = %v", err)
	}
}

func TestLRUEvictionBoundsResidency(t *testing.T) {
	w := testWorld()
	const maxResident = 4
	m := session.NewManager(session.Config{Factory: demoFactory(w), MaxResident: maxResident})
	var ids []string
	for i := 0; i < 10; i++ {
		s, err := m.Create(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		ids = append(ids, s.ID())
		s.Release()
	}
	st := m.Stats()
	if st.Resident > maxResident {
		t.Fatalf("resident = %d, want <= %d", st.Resident, maxResident)
	}
	if st.Evictions < 6 {
		t.Fatalf("evictions = %d, want >= 6", st.Evictions)
	}
	// The oldest sessions must be the evicted ones; the most recent must
	// still be resident.
	if info, _ := m.Get(ids[0]); info.Resident {
		t.Fatal("LRU session still resident")
	}
	if info, _ := m.Get(ids[9]); !info.Resident {
		t.Fatal("MRU session was evicted")
	}
	// Touching an evicted session reloads it and pushes out another LRU.
	s, err := m.Acquire(ids[0])
	if err != nil {
		t.Fatalf("Acquire LRU: %v", err)
	}
	s.Release()
	if st := m.Stats(); st.Resident > maxResident {
		t.Fatalf("resident after reload = %d, want <= %d", st.Resident, maxResident)
	}
	if info, _ := m.Get(ids[0]); !info.Resident {
		t.Fatal("reloaded session not resident")
	}
}

func TestMemoryBudgetEviction(t *testing.T) {
	w := testWorld()
	// Budget sized to hold only a couple of imported sessions.
	m := session.NewManager(session.Config{Factory: demoFactory(w), MemoryBudget: 256 << 10})
	for i := 0; i < 6; i++ {
		s, err := m.Create("t")
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		mustImport(t, w, s.State())
		s.Release()
	}
	st := m.Stats()
	if st.ResidentBytes > 256<<10 {
		t.Fatalf("resident bytes %d exceed budget", st.ResidentBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a tight memory budget")
	}
}

// testStores enumerates the Store implementations the lifecycle
// property tests must hold over: the in-memory default and the durable
// file tier (which adds compression framing, headers, and disk I/O to
// the snapshot path).
func testStores(t *testing.T) map[string]func() session.Store {
	t.Helper()
	return map[string]func() session.Store{
		"mem": func() session.Store { return session.NewMemStore() },
		"file": func() session.Store {
			fs, err := session.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
}

// TestEvictReloadIdenticalSuggestions is the property test behind the
// "transparent reload" claim: across seeded random accept/reject
// feedback, a session's suggestion list after evict+reload is identical
// to the one it would have produced had it stayed resident — learned
// MIRA weights, tabs, and relations all survive the round trip. It
// holds over both stores: the durable tier's gzip framing and header
// checks are invisible to the suggestions.
func TestEvictReloadIdenticalSuggestions(t *testing.T) {
	w := testWorld()
	for storeName, newStore := range testStores(t) {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", storeName, seed), func(t *testing.T) {
				m := session.NewManager(session.Config{Factory: demoFactory(w), Store: newStore()})
				s, err := m.Create("prop")
				if err != nil {
					t.Fatal(err)
				}
				mustImport(t, w, s.State())
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < 4; round++ {
					ws := s.State().Workspace
					comps := ws.RefreshColumnSuggestions()
					if len(comps) > 1 {
						// Random feedback: reject one of the top-2 proposals so
						// the MIRA weights actually move each round.
						if err := ws.RejectColumn(rng.Intn(2)); err != nil {
							t.Fatalf("round %d: reject: %v", round, err)
						}
					}
					want := completionsDigest(ws)
					s.Release()
					if err := m.Evict(s.ID()); err != nil {
						t.Fatalf("round %d: evict: %v", round, err)
					}
					if s, err = m.Acquire(s.ID()); err != nil {
						t.Fatalf("round %d: acquire: %v", round, err)
					}
					if got := completionsDigest(s.State().Workspace); got != want {
						t.Fatalf("round %d: suggestions diverged after reload\nwant:\n%s\ngot:\n%s",
							round, want, got)
					}
				}
				s.Release()
			})
		}
	}
}

// TestReloadPreservesPlanCacheCounters pins the satellite fix: the plan
// cache's lifetime hit/miss counters survive an evict/reload cycle even
// though the cached entries themselves are rebuilt cold.
func TestReloadPreservesPlanCacheCounters(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{Factory: demoFactory(w)})
	s, err := m.Create("t")
	if err != nil {
		t.Fatal(err)
	}
	mustImport(t, w, s.State())
	ws := s.State().Workspace
	ws.RefreshColumnSuggestions()
	ws.RefreshColumnSuggestions() // second pass hits the plan cache
	hits, misses, _ := ws.PlanCache.Stats()
	if hits == 0 {
		t.Fatal("expected plan-cache hits before eviction")
	}
	s.Release()
	if err := m.Evict(s.ID()); err != nil {
		t.Fatal(err)
	}
	s, err = m.Acquire(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	ws = s.State().Workspace
	h2, m2, _ := ws.PlanCache.Stats()
	if h2 != hits || m2 != misses {
		t.Fatalf("counters reset by reload: had %d/%d, got %d/%d", hits, misses, h2, m2)
	}
	if ws.PlanCache.Len() != 0 {
		t.Fatalf("reloaded cache should start cold, has %d entries", ws.PlanCache.Len())
	}
	// And they keep counting from there.
	ws.RefreshColumnSuggestions()
	h3, m3, _ := ws.PlanCache.Stats()
	if h3+m3 <= h2+m2 {
		t.Fatal("counters did not advance after reload")
	}
}

// TestAdmissionShedsOnFastBurn drives the host stream's SLO tracker on
// a virtual clock: when the fast-burn alert fires, Create sheds with
// ErrOverloaded; once the burn window ages out, admission reopens.
func TestAdmissionShedsOnFastBurn(t *testing.T) {
	w := testWorld()
	clock := obs.NewVirtualClock()
	m := session.NewManager(session.Config{Factory: demoFactory(w), Clock: clock})
	slo := m.Stream()

	if s, err := m.Create("ok"); err != nil {
		t.Fatalf("Create while healthy: %v", err)
	} else {
		s.Release()
	}

	// Burn the fast window: every refresh blows the 25ms objective.
	for i := 0; i < 50; i++ {
		slo.Publish(obs.Event{Kind: obs.KindStage, Name: obs.SLOStage, Dur: 200 * time.Millisecond})
	}
	if st := slo.SLO(); !st.FastAlert {
		t.Fatalf("fast alert not firing: %+v", st)
	}
	if _, err := m.Create("shed"); !errors.Is(err, session.ErrOverloaded) {
		t.Fatalf("Create under burn = %v, want ErrOverloaded", err)
	}
	hs := m.Stats()
	if !hs.Shedding || hs.Rejected != 1 {
		t.Fatalf("stats under burn: %+v", hs)
	}

	// Advance past the fast window; the alert clears and admission
	// reopens — deterministically, because everything runs on the
	// virtual clock.
	clock.Advance(10 * time.Minute)
	if st := slo.SLO(); st.FastAlert {
		t.Fatalf("fast alert still firing after window aged out: %+v", st)
	}
	if s, err := m.Create("recovered"); err != nil {
		t.Fatalf("Create after recovery: %v", err)
	} else {
		s.Release()
	}
}

func TestAdmissionCapacity(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{Factory: demoFactory(w), MaxSessions: 2})
	for i := 0; i < 2; i++ {
		s, err := m.Create("t")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	if _, err := m.Create("over"); !errors.Is(err, session.ErrCapacity) {
		t.Fatalf("Create over cap = %v, want ErrCapacity", err)
	}
	if shedding, reason := m.Shedding(); !shedding || reason == "" {
		t.Fatal("Shedding() should report the full table")
	}
	// Destroy frees a slot.
	if err := m.Destroy(m.List()[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("fits"); err != nil {
		t.Fatalf("Create after destroy: %v", err)
	}
}

func TestStandaloneSession(t *testing.T) {
	w := testWorld()
	e := simuser.NewEnv(w, webworld.StyleTable)
	st := &session.State{Workspace: e.WS, Catalog: e.WS.Cat, Types: e.WS.Types}
	s := session.NewStandalone("local", st)
	if s.State() != st {
		t.Fatal("standalone state mismatch")
	}
	s.Release() // must be a no-op
	if s.State() != st {
		t.Fatal("Release dropped standalone state")
	}
}

func TestSessionIDThreading(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{Factory: demoFactory(w), EnableTracing: true})
	s, err := m.Create("alice")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	mustImport(t, w, s.State())
	ws := s.State().Workspace
	ws.RefreshColumnSuggestions()
	if len(ws.RefreshColumnSuggestions()) > 1 {
		if err := ws.RejectColumn(0); err != nil {
			t.Fatal(err)
		}
	}
	// Decisions carry the session ID.
	found := false
	for _, d := range ws.Decisions.Decisions() {
		if d.Session == s.ID() {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no decision stamped with the session ID")
	}
	// Spans published on the host stream carry it as an attribute.
	events, _, _ := m.Stream().Since(0)
	foundSpan := false
	for _, ev := range events {
		if ev.Kind != obs.KindSpan {
			continue
		}
		for _, a := range ev.Span.Attrs {
			if a.Key == "session" && a.Value == s.ID() {
				foundSpan = true
			}
		}
	}
	if !foundSpan {
		t.Fatalf("no span tagged with session %s among %d events", s.ID(), len(events))
	}
}

func TestHostSLOObservesAllSessions(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{Factory: demoFactory(w)})
	for i := 0; i < 3; i++ {
		s, err := m.Create("t")
		if err != nil {
			t.Fatal(err)
		}
		mustImport(t, w, s.State())
		s.State().Workspace.RefreshColumnSuggestions()
		s.Release()
	}
	if st := m.Stream().SLO(); st.FastCount < 3 {
		t.Fatalf("host SLO observed %d refreshes, want >= 3", st.FastCount)
	}
	snap := m.MetricsSnapshot()
	if h, ok := snap.Histograms["host.latency.suggest.refresh"]; !ok || h.Count < 3 {
		t.Fatalf("host latency histogram missing or short: %+v", snap.Histograms)
	}
	if snap.Counters["sessions.created"] != 3 {
		t.Fatalf("sessions.created = %d", snap.Counters["sessions.created"])
	}
}
