package session_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"copycat/internal/obs"
	"copycat/internal/obs/flight"
	"copycat/internal/session"
)

// fileBackedManager builds a manager over a FileStore in dir.
func fileBackedManager(t *testing.T, dir string, cfg session.Config) *session.Manager {
	t.Helper()
	fs, err := session.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = fs
	return session.NewManager(cfg)
}

// TestCrashRecovery is the durability claim end to end: a manager
// rebuilt over an existing store directory re-registers every on-disk
// session — original ID, original tenant — and Acquire serves each one
// suggestion-identical to before the "crash". New creates never collide
// with recovered IDs.
func TestCrashRecovery(t *testing.T) {
	w := testWorld()
	dir := t.TempDir()
	m1 := fileBackedManager(t, dir, session.Config{Factory: demoFactory(w)})

	tenants := []string{"alice", "bob", "carol"}
	digests := map[string]string{}
	tenantOf := map[string]string{}
	for _, tenant := range tenants {
		s, err := m1.Create(tenant)
		if err != nil {
			t.Fatal(err)
		}
		mustImport(t, w, s.State())
		digests[s.ID()] = completionsDigest(s.State().Workspace)
		tenantOf[s.ID()] = tenant
		s.Release()
	}
	// Graceful shutdown: checkpoint every resident session to disk.
	n, err := m1.Checkpoint()
	if err != nil || n != len(tenants) {
		t.Fatalf("Checkpoint = %d, %v, want %d, nil", n, err, len(tenants))
	}

	// "Crash": the old manager and store are dropped; a new process
	// opens the same directory.
	m2 := fileBackedManager(t, dir, session.Config{Factory: demoFactory(w)})
	st := m2.Stats()
	if st.Sessions != len(tenants) || st.Recovered != int64(len(tenants)) {
		t.Fatalf("after recovery: %+v, want %d sessions recovered", st, len(tenants))
	}
	for id, want := range digests {
		info, ok := m2.Get(id)
		if !ok {
			t.Fatalf("session %s not recovered", id)
		}
		if info.Resident {
			t.Fatalf("recovered session %s should start evicted", id)
		}
		if info.Tenant != tenantOf[id] {
			t.Fatalf("session %s recovered under tenant %q, want %q", id, info.Tenant, tenantOf[id])
		}
		s, err := m2.Acquire(id)
		if err != nil {
			t.Fatalf("Acquire recovered %s: %v", id, err)
		}
		if got := completionsDigest(s.State().Workspace); got != want {
			t.Fatalf("session %s suggestions diverged across restart\nwant:\n%s\ngot:\n%s", id, want, got)
		}
		s.Release()
	}
	if snap := m2.MetricsSnapshot(); snap.Counters["sessions.recovered"] != int64(len(tenants)) {
		t.Fatalf("sessions.recovered = %d", snap.Counters["sessions.recovered"])
	}
	// The ID sequence advanced past the recovered IDs.
	s, err := m2.Create("dave")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if _, dup := digests[s.ID()]; dup {
		t.Fatalf("new session reused recovered ID %s", s.ID())
	}
}

// TestCorruptSnapshotQuarantinedOnAcquire: a damaged snapshot must cost
// one failed Acquire (ErrCorruptSnapshot), not poison the session
// forever or panic the host. The follow-up Acquire reports the snapshot
// gone (quarantined), which is recoverable — destroy and recreate.
func TestCorruptSnapshotQuarantinedOnAcquire(t *testing.T) {
	w := testWorld()
	dir := t.TempDir()
	m := fileBackedManager(t, dir, session.Config{Factory: demoFactory(w)})
	s, err := m.Create("t")
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	mustImport(t, w, s.State())
	s.Release()
	if err := m.Evict(id); err != nil {
		t.Fatal(err)
	}
	// Scribble over the snapshot.
	fs := m.Store().(*session.FileStore)
	if err := os.WriteFile(snapPath(fs, id), []byte("\x00\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(id); !errors.Is(err, session.ErrCorruptSnapshot) {
		t.Fatalf("Acquire corrupt = %v, want ErrCorruptSnapshot", err)
	}
	if _, err := m.Acquire(id); !errors.Is(err, session.ErrNoSnapshot) {
		t.Fatalf("Acquire after quarantine = %v, want ErrNoSnapshot", err)
	}
	if snap := m.MetricsSnapshot(); snap.Gauges["sessions.store_quarantined"] != 1 {
		t.Fatalf("sessions.store_quarantined = %v", snap.Gauges["sessions.store_quarantined"])
	}
	// The slot is recoverable: destroy and recreate under the tenant.
	if err := m.Destroy(id); err != nil {
		t.Fatal(err)
	}
	s2, err := m.Create("t")
	if err != nil {
		t.Fatal(err)
	}
	s2.Release()
}

// TestTenantFairness pins the TenantResidentQuota policy: a create
// storm from one tenant cannot flush another tenant's sessions below
// its quota. Pre-quota (global LRU) the quiet tenant's sessions are the
// oldest and get evicted first.
func TestTenantFairness(t *testing.T) {
	w := testWorld()
	const quota = 2
	m := session.NewManager(session.Config{
		Factory:             demoFactory(w),
		MaxResident:         4,
		TenantResidentQuota: quota,
	})
	var quiet []string
	for i := 0; i < quota; i++ {
		s, err := m.Create("quiet")
		if err != nil {
			t.Fatal(err)
		}
		quiet = append(quiet, s.ID())
		s.Release()
	}
	// Noisy storm: every create pushes the fleet over MaxResident, so
	// the evictor runs eight times while quiet sits idle (= oldest LRU).
	for i := 0; i < 8; i++ {
		s, err := m.Create("noisy")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	st := m.Stats()
	if st.Resident > 4 {
		t.Fatalf("resident = %d, want <= 4", st.Resident)
	}
	for _, id := range quiet {
		info, ok := m.Get(id)
		if !ok || !info.Resident {
			t.Fatalf("quiet session %s evicted by the noisy storm (info=%+v)", id, info)
		}
	}
	if st.Evictions < 6 {
		t.Fatalf("evictions = %d, want the storm to pay for itself (>= 6)", st.Evictions)
	}
}

// TestTenantFairnessFallsBackToLRU: with everyone within quota, the
// evictor is plain global LRU.
func TestTenantFairnessFallsBackToLRU(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{
		Factory:             demoFactory(w),
		MaxResident:         2,
		TenantResidentQuota: 5, // nobody ever exceeds it
	})
	var ids []string
	for i := 0; i < 4; i++ {
		s, err := m.Create(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
		s.Release()
	}
	if info, _ := m.Get(ids[0]); info.Resident {
		t.Fatal("LRU session survived within-quota eviction")
	}
	if info, _ := m.Get(ids[3]); !info.Resident {
		t.Fatal("MRU session evicted within quota")
	}
}

// TestConcurrentCreateRespectsMaxSessions pins the admission race fix:
// Create used to check capacity only before running the factory, so N
// concurrent creates against a table with one free slot could all pass
// the check and all insert. Capacity is now re-verified at insert time
// under the table lock.
func TestConcurrentCreateRespectsMaxSessions(t *testing.T) {
	w := testWorld()
	const cap = 8
	m := session.NewManager(session.Config{Factory: demoFactory(w), MaxSessions: cap})
	const attempts = 40
	var admitted, shed atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, err := m.Create("racer")
			switch {
			case err == nil:
				admitted.Add(1)
				s.Release()
			case errors.Is(err, session.ErrCapacity):
				shed.Add(1)
			default:
				t.Errorf("Create: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted.Load() != cap || shed.Load() != attempts-cap {
		t.Fatalf("admitted=%d shed=%d, want exactly %d/%d", admitted.Load(), shed.Load(), cap, attempts-cap)
	}
	if st := m.Stats(); st.Sessions != cap {
		t.Fatalf("table holds %d sessions, cap is %d", st.Sessions, cap)
	}
}

// flakyStore wraps a Store and fails Save for chosen session IDs.
type flakyStore struct {
	session.Store
	mu      sync.Mutex
	failIDs map[string]bool
}

func (f *flakyStore) Save(id string, data []byte) error {
	f.mu.Lock()
	fail := f.failIDs[id]
	f.mu.Unlock()
	if fail {
		return errors.New("flaky store: injected save failure")
	}
	return f.Store.Save(id, data)
}

// TestEvictSweepSurvivesVictimFailure pins the resilient-sweep fix: one
// victim whose snapshot can't be stored used to abort the whole
// eviction sweep, leaving the fleet over budget. The sweep now skips
// the failed victim (counting it in evict_errors) and keeps going.
func TestEvictSweepSurvivesVictimFailure(t *testing.T) {
	w := testWorld()
	fl := &flakyStore{Store: session.NewMemStore(), failIDs: map[string]bool{"s000001": true}}
	m := session.NewManager(session.Config{Factory: demoFactory(w), MaxResident: 2, Store: fl})
	for i := 0; i < 4; i++ {
		s, err := m.Create("t")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	st := m.Stats()
	if st.Resident > 2 {
		t.Fatalf("resident = %d after sweeps, want <= 2: a failed victim stalled eviction", st.Resident)
	}
	if st.EvictErrors == 0 {
		t.Fatal("injected save failure not counted in EvictErrors")
	}
	// The unsaveable session stays resident — state loss is worse than
	// budget overshoot.
	if info, _ := m.Get("s000001"); !info.Resident {
		t.Fatal("session with failing store write lost its state")
	}
	if snap := m.MetricsSnapshot(); snap.Counters["sessions.evict_errors"] == 0 {
		t.Fatal("sessions.evict_errors missing from metrics")
	}
}

// TestStatsCapacityConsistency pins the torn-read fix: Stats used to
// evaluate Shedding() and the session count under separate lock
// acquisitions, so a concurrent create/destroy could yield a snapshot
// claiming capacity shedding with a below-cap table (or a full table
// without the flag). Both now come from one critical section: with no
// soft signals active, Shedding ⟺ Sessions >= MaxSessions must hold in
// every snapshot.
func TestStatsCapacityConsistency(t *testing.T) {
	w := testWorld()
	const max = 4
	m := session.NewManager(session.Config{Factory: demoFactory(w), MaxSessions: max})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := m.Create("churn")
				if err != nil {
					continue
				}
				id := s.ID()
				s.Release()
				m.Destroy(id)
			}
		}()
	}
	for i := 0; i < 300; i++ {
		st := m.Stats()
		full := st.Sessions >= max
		capShed := st.Shedding && st.ShedReason == "session table full"
		if capShed != full {
			close(stop)
			wg.Wait()
			t.Fatalf("torn stats snapshot: sessions=%d/%d shedding=%v reason=%q",
				st.Sessions, max, st.Shedding, st.ShedReason)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCheckpointEvictsEverything: Checkpoint is the graceful-shutdown
// path — every resident, unpinned session lands in the store; pinned
// sessions are skipped, not blocked on.
func TestCheckpointEvictsEverything(t *testing.T) {
	w := testWorld()
	m := session.NewManager(session.Config{Factory: demoFactory(w)})
	for i := 0; i < 3; i++ {
		s, err := m.Create("t")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	pinned, err := m.Create("held")
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Checkpoint()
	if err != nil || n != 3 {
		t.Fatalf("Checkpoint = %d, %v, want 3, nil (pinned session skipped)", n, err)
	}
	if st := m.Stats(); st.Resident != 1 {
		t.Fatalf("resident after checkpoint = %d, want 1 (the pinned one)", st.Resident)
	}
	pinned.Release()
}

// TestEvictFailureIsAttributed pins the attribution fix: a failed
// eviction used to bump sessions.evict_errors with no record of which
// session or tenant was the victim. The failure must now land in the
// host decision log naming the victim, in the flight recorder's
// timeline, and in a captured evict.error incident carrying the
// session/tenant pair.
func TestEvictFailureIsAttributed(t *testing.T) {
	w := testWorld()
	fl := &flakyStore{Store: session.NewMemStore(), failIDs: map[string]bool{"s000001": true}}
	m := session.NewManager(session.Config{Factory: demoFactory(w), MaxResident: 2, Store: fl})
	for i := 0; i < 4; i++ {
		s, err := m.Create("acme")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	if st := m.Stats(); st.EvictErrors == 0 {
		t.Fatal("injected save failure not counted in EvictErrors")
	}

	// Decision log: the victim and its tenant are named.
	found := false
	for _, d := range m.Decisions().Decisions() {
		if d.Stage == "session.evict" && d.Candidate == "s000001" && d.Session == "s000001" {
			if !strings.Contains(d.Reason, "acme") || !strings.Contains(d.Reason, "injected save failure") {
				t.Errorf("evict-error decision reason lacks tenant or cause: %+v", d)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no evict-error decision names the victim: %+v", m.Decisions().Decisions())
	}

	// Flight recorder: the timeline event and the captured incident both
	// carry the attribution.
	rec := m.Flight()
	var sums []flight.Summary
	for _, s := range rec.Incidents() {
		if s.Trigger == flight.TriggerEvictError {
			sums = append(sums, s)
		}
	}
	if len(sums) == 0 {
		t.Fatal("evict failure did not capture an evict.error incident")
	}
	if sums[0].Session != "s000001" || sums[0].Tenant != "acme" {
		t.Errorf("incident attribution = session %q tenant %q, want s000001/acme",
			sums[0].Session, sums[0].Tenant)
	}
	inc, ok := rec.Incident(sums[0].ID)
	if !ok {
		t.Fatal("captured incident not fetchable")
	}
	hasEvent := false
	for _, e := range inc.Events {
		if e.Kind == obs.EventEvictError && e.Session == "s000001" && e.Tenant == "acme" {
			hasEvent = true
		}
	}
	if !hasEvent {
		t.Errorf("bundle timeline lacks the attributed evict-error event: %+v", inc.Events)
	}
}
