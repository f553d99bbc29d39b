package flight

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copycat/internal/obs"
)

// testClock is a hand-set clock for deterministic capture tests; unlike
// obs.VirtualClock it can also jump backwards.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time          { return c.now }
func (c *testClock) Sleep(d time.Duration)   { c.Advance(d) }
func (c *testClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *testClock) Set(t time.Time)         { c.now = t }
func newTestClock() *testClock               { return &testClock{now: time.Unix(1_000_000, 0)} }

// testRecorder is a recorder on a fresh stream driven by the test clock,
// with helpers publishing onto that stream.
type testRecorder struct {
	*Recorder
	stream *obs.Stream
}

func newTestRecorder(c *testClock, cfg Config) testRecorder {
	s := obs.NewStream(c)
	return testRecorder{New(s, cfg), s}
}

func (r testRecorder) event(name, session, tenant, detail string) {
	r.stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: name, Session: session, Tenant: tenant, Detail: detail})
}

func (r testRecorder) span(sp obs.SpanEvent) {
	r.stream.Publish(obs.Event{Kind: obs.KindSpan, Span: &sp})
}

func (r testRecorder) decision(d obs.Decision) {
	r.stream.Publish(obs.Event{Kind: obs.KindDecision, Decision: &d})
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Observe(&obs.Event{Kind: obs.KindLifecycle, Name: obs.EventEvictError})
	r.SetDir("/nope")
	if id, ok := r.Trigger(TriggerBreakerOpen, "r", "", ""); ok || id != "" {
		t.Errorf("nil recorder captured %q", id)
	}
	if got := r.Incidents(); got != nil {
		t.Errorf("nil recorder listed incidents: %v", got)
	}
	if _, ok := r.Incident("inc-000001-x"); ok {
		t.Error("nil recorder returned an incident")
	}
	if r.Captured() != 0 || r.Suppressed() != 0 {
		t.Error("nil recorder has nonzero counters")
	}
	if e, s, d := r.Retained(); e+s+d != 0 {
		t.Error("nil recorder retains data")
	}
}

// TestTriggerCooldownCapturesExactlyOnce is the core exactly-once
// guarantee: repeated triggers of one kind inside the cooldown window
// are suppressed and counted, a different kind still captures, and the
// same kind captures again once the cooldown has elapsed.
func TestTriggerCooldownCapturesExactlyOnce(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{})
	id1, ok := r.Trigger(TriggerBreakerOpen, "geocoder tripped", "s1", "")
	if !ok || id1 == "" {
		t.Fatalf("first trigger should capture, got %q %v", id1, ok)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if _, ok := r.Trigger(TriggerBreakerOpen, "again", "s1", ""); ok {
			t.Fatalf("trigger %d inside cooldown should be suppressed", i)
		}
	}
	if got := r.Suppressed(); got != 3 {
		t.Errorf("suppressed = %d, want 3", got)
	}
	if got := r.Captured(); got != 1 {
		t.Errorf("captured = %d, want 1", got)
	}
	// A different trigger kind has its own cooldown.
	if _, ok := r.Trigger(TriggerEvictError, "disk full", "s2", "acme"); !ok {
		t.Error("different trigger kind should not share the cooldown")
	}
	// After the cooldown the original kind fires again.
	clk.Advance(31 * time.Second)
	if !r.armed(TriggerBreakerOpen) {
		t.Error("should be armed after cooldown")
	}
	id2, ok := r.Trigger(TriggerBreakerOpen, "tripped again", "s1", "")
	if !ok {
		t.Fatal("post-cooldown trigger should capture")
	}
	if id2 == id1 {
		t.Errorf("incident IDs should be unique, both %q", id1)
	}
	if got := r.Captured(); got != 3 {
		t.Errorf("captured = %d, want 3", got)
	}
}

// TestTimelineRetentionAndAttribution checks that a bundle carries only
// the retention window and attributes its contents per session/tenant.
func TestTimelineRetentionAndAttribution(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{})
	// Old data outside the retention window must not appear.
	r.event(obs.EventEvict, "old-session", "old-tenant", "too old")
	clk.Advance(2 * time.Minute)
	r.event(obs.EventBreaker, "s1", "", "geocoder: open -> half-open")
	r.span(obs.SpanEvent{Name: "stage.execute", DurNs: 1500, Attrs: []obs.Attr{
		{Key: "session", Value: "s1"}, {Key: "error", Value: "breaker geocoder open"},
	}})
	r.decision(obs.Decision{Seq: 1, Session: "s1", Stage: "session.evict", Candidate: "s1", Action: obs.ActionDropped, Reason: "x"})
	r.event(obs.EventShed, "", "acme", "at capacity")
	id, ok := r.Trigger(TriggerSignal, "operator capture", "s1", "")
	if !ok {
		t.Fatal("trigger should capture")
	}
	inc, ok := r.Incident(id)
	if !ok {
		t.Fatal("captured incident should be retrievable")
	}
	if len(inc.Events) != 2 {
		t.Fatalf("events = %d, want 2 (stale one dropped): %+v", len(inc.Events), inc.Events)
	}
	for _, e := range inc.Events {
		if e.Session == "old-session" {
			t.Error("event outside the retention window leaked into the bundle")
		}
	}
	if len(inc.Spans) != 1 || len(inc.Decisions) != 1 {
		t.Fatalf("spans=%d decisions=%d, want 1/1", len(inc.Spans), len(inc.Decisions))
	}
	a := inc.Sessions["s1"]
	if a.Events != 1 || a.Spans != 1 || a.Decisions != 1 {
		t.Errorf("s1 attribution = %+v, want events=1 spans=1 decisions=1", a)
	}
	if inc.Tenants["acme"].Events != 1 {
		t.Errorf("acme attribution = %+v, want events=1", inc.Tenants["acme"])
	}
	if inc.Runtime.Goroutines <= 0 || inc.Runtime.GOMAXPROCS <= 0 {
		t.Errorf("runtime stats not captured: %+v", inc.Runtime)
	}
}

// TestRingCapsBoundMemory drives the stream's ring well past its
// capacity and checks that what a bundle could hold stays bounded by it
// while keeping the newest entries of every kind.
func TestRingCapsBoundMemory(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{})
	for i := 0; i < obs.StreamCapacity; i++ {
		r.event(obs.EventEvict, "s", "", "e")
		r.span(obs.SpanEvent{Name: "x"})
		r.decision(obs.Decision{Candidate: "c"})
	}
	e, s, d := r.Retained()
	if e+s+d != obs.StreamCapacity {
		t.Errorf("retained %d entries (events=%d spans=%d decisions=%d), want the ring capacity %d",
			e+s+d, e, s, d, obs.StreamCapacity)
	}
	if e == 0 || s == 0 || d == 0 {
		t.Error("the ring should retain the newest entries of every kind after overflow")
	}
}

// TestPeriodicSnapshotsAndDeltas checks that metric snapshots pace on
// the clock, become a bundle's pre state, and diff into counter deltas.
func TestPeriodicSnapshotsAndDeltas(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	c := reg.Counter("engine.rows")
	r := newTestRecorder(clk, Config{Metrics: reg.Snapshot})
	c.Add(10)
	r.event(obs.EventEvict, "s", "", "first") // takes the initial snapshot
	c.Add(5)
	clk.Advance(SnapshotEvery + time.Second)
	r.event(obs.EventEvict, "s", "", "second") // snapshot due again
	c.Add(7)
	clk.Advance(time.Second)
	id, ok := r.Trigger(TriggerEvictError, "boom", "s", "")
	if !ok {
		t.Fatal("trigger should capture")
	}
	inc, _ := r.Incident(id)
	if inc.Pre.Counters["engine.rows"] != 15 {
		t.Errorf("pre counter = %d, want 15 (newest snapshot before capture)", inc.Pre.Counters["engine.rows"])
	}
	if inc.Post.Counters["engine.rows"] != 22 {
		t.Errorf("post counter = %d, want 22", inc.Post.Counters["engine.rows"])
	}
	if inc.CounterDeltas["engine.rows"] != 7 {
		t.Errorf("delta = %d, want 7", inc.CounterDeltas["engine.rows"])
	}
	if inc.PreAgeNs != time.Second.Nanoseconds() {
		t.Errorf("pre age = %d, want 1s", inc.PreAgeNs)
	}
}

// TestBackwardsClockReanchors reproduces the facade's construction
// order: the recorder starts on the wall clock, then a virtual clock
// anchored in the past is injected. Snapshots and cooldowns must
// re-anchor instead of stalling until virtual time catches up to 2026.
func TestBackwardsClockReanchors(t *testing.T) {
	clk := &testClock{now: time.Now()}
	reg := obs.NewRegistry()
	r := newTestRecorder(clk, Config{Metrics: reg.Snapshot})
	r.event(obs.EventEvict, "s", "", "on the wall clock")
	if _, ok := r.Trigger(TriggerBreakerOpen, "wall-clock capture", "", ""); !ok {
		t.Fatal("first trigger should capture")
	}
	// The virtual clock lands far in the past.
	clk.Set(time.Unix(0, 0).Add(time.Hour))
	if !r.armed(TriggerBreakerOpen) {
		t.Error("backwards clock jump should re-arm the trigger")
	}
	r.event(obs.EventEvict, "s", "", "on the virtual clock")
	if _, ok := r.Trigger(TriggerBreakerOpen, "virtual-clock capture", "", ""); !ok {
		t.Error("trigger after the backwards jump should capture")
	}
}

// TestIncidentListAndBoundedRetention checks newest-first listing and
// the in-memory incident cap.
func TestIncidentListAndBoundedRetention(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{})
	var last string
	for i := 0; i < MaxIncidents+2; i++ {
		id, ok := r.Trigger(TriggerSignal, "capture", "", "")
		if !ok {
			t.Fatalf("capture %d suppressed", i)
		}
		last = id
		clk.Advance(Cooldown)
	}
	list := r.Incidents()
	if len(list) != MaxIncidents {
		t.Fatalf("retained %d incidents, want %d", len(list), MaxIncidents)
	}
	if list[0].ID != last {
		t.Errorf("newest first: got %s, want %s", list[0].ID, last)
	}
	// The evicted oldest bundle is gone.
	if _, ok := r.Incident("inc-000001-sigquit"); ok {
		t.Error("oldest incident should have been pruned from memory")
	}
}

// TestDiskBundlesWritePruneAndReadBack checks the on-disk side: bundles
// land as JSON files, the directory stays bounded, and ReadBundle
// round-trips a file back into an Incident.
func TestDiskBundlesWritePruneAndReadBack(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	r := newTestRecorder(clk, Config{Dir: dir})
	var ids []string
	for i := 0; i < MaxIncidents+2; i++ {
		r.event(obs.EventBreaker, "s1", "", "geocoder: open -> half-open")
		id, ok := r.Trigger(TriggerBreakerOpen, "tripped", "s1", "")
		if !ok {
			t.Fatalf("capture %d suppressed", i)
		}
		ids = append(ids, id)
		clk.Advance(Cooldown)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != MaxIncidents {
		t.Fatalf("disk holds %d bundles, want %d (pruned): %v", len(files), MaxIncidents, files)
	}
	last := ids[len(ids)-1]
	inc, err := ReadBundle(filepath.Join(dir, last+".json"))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if inc.ID != last || inc.Trigger != TriggerBreakerOpen {
		t.Errorf("round-trip mismatch: %+v", inc)
	}
	if len(inc.Events) == 0 || inc.Events[0].Detail != "geocoder: open -> half-open" {
		t.Errorf("bundle lost its timeline: %+v", inc.Events)
	}
	// Not-a-bundle files are rejected with a useful error.
	bad := filepath.Join(dir, "not-a-bundle.json")
	if err := os.WriteFile(bad, []byte(`{"x": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(bad); err == nil {
		t.Error("ReadBundle should reject a JSON file with no id/trigger")
	}
	if _, err := ReadBundle(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadBundle should fail on a missing file")
	}
}

// TestRenderTimelineNamesTheStory checks the post-mortem rendering: it
// must name the breaker transition, flag the degraded span, show the
// affected session, and print the counter deltas.
func TestRenderTimelineNamesTheStory(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	trips := reg.Counter("resilience.breaker_trips")
	r := newTestRecorder(clk, Config{Metrics: reg.Snapshot})
	r.event(obs.EventEvict, "s1", "acme", "warm-up") // initial snapshot, before the trip
	clk.Advance(2 * time.Second)
	trips.Inc()
	r.span(obs.SpanEvent{Name: "stage.execute", DurNs: 250_000, Attrs: []obs.Attr{
		{Key: "session", Value: "s1"}, {Key: "breaker", Value: "geocoder"},
	}})
	r.decision(obs.Decision{Seq: 2, Session: "s1", Stage: "suggest.columns", Candidate: "Zip", Action: obs.ActionDegraded, Reason: "rows dropped"})
	// The transition to open is itself the trigger.
	r.event(obs.EventBreaker, "s1", "acme", "geocoder: closed -> open")
	list := r.Incidents()
	if len(list) != 1 {
		t.Fatalf("breaker opening captured %d bundles, want 1", len(list))
	}
	id := list[0].ID
	inc, _ := r.Incident(id)
	out := RenderTimeline(inc)
	for _, want := range []string{
		"incident " + id,
		"trigger   breaker.open — geocoder: closed -> open",
		"session   s1 (tenant acme)",
		"closed -> open",
		"DEGRADED (breaker=geocoder)",
		"[session=s1]",
		"decision  [suggest.columns] degraded Zip",
		"resilience.breaker_trips",
		"+1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if RenderTimeline(nil) != "no incident\n" {
		t.Error("nil incident should render a placeholder")
	}
}

// TestSummaryCountsMatchBundle checks the list view's counts.
func TestSummaryCountsMatchBundle(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{})
	r.event(obs.EventShed, "", "acme", "capacity")
	r.span(obs.SpanEvent{Name: "a"})
	r.span(obs.SpanEvent{Name: "b"})
	id, _ := r.Trigger(TriggerSignal, "capture", "", "acme")
	list := r.Incidents()
	if len(list) != 1 {
		t.Fatalf("want 1 summary, got %d", len(list))
	}
	s := list[0]
	if s.ID != id || s.Events != 1 || s.Spans != 2 || s.Decisions != 0 || s.Tenant != "acme" {
		t.Errorf("summary %+v does not match the bundle", s)
	}
}

// TestRegistryCountersExported checks the copycat_incidents_* substrate:
// the counters exist at zero from construction and track captures,
// suppressions, and the stored gauge.
func TestRegistryCountersExported(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	r := newTestRecorder(clk, Config{Registry: reg})
	snap := reg.Snapshot()
	if v, ok := snap.Counters["incidents.captured"]; !ok || v != 0 {
		t.Errorf("incidents.captured should pre-exist at 0, got %d (present %v)", v, ok)
	}
	if v, ok := snap.Counters["incidents.suppressed"]; !ok || v != 0 {
		t.Errorf("incidents.suppressed should pre-exist at 0, got %d (present %v)", v, ok)
	}
	r.Trigger(TriggerSignal, "x", "", "")
	r.Trigger(TriggerSignal, "x", "", "") // suppressed
	snap = reg.Snapshot()
	if snap.Counters["incidents.captured"] != 1 || snap.Counters["incidents.suppressed"] != 1 {
		t.Errorf("counters = %+v, want captured=1 suppressed=1", snap.Counters)
	}
	if snap.Gauges["incidents.stored"] != 1 {
		t.Errorf("incidents.stored = %f, want 1", snap.Gauges["incidents.stored"])
	}
}

// TestTriggerRules checks which published events capture a bundle, and
// with what reason and attribution.
func TestTriggerRules(t *testing.T) {
	clk := newTestClock()
	r := newTestRecorder(clk, Config{})
	r.event(obs.EventEvict, "s1", "acme", "evicted to store")
	r.event(obs.EventShed, "", "acme", "capacity")
	r.event(obs.EventBreaker, "", "", "geocoder: half-open -> closed")
	if n := len(r.Incidents()); n != 0 {
		t.Fatalf("non-trigger events captured %d bundles", n)
	}
	r.event(obs.EventEvictError, "s1", "acme", "disk full")
	r.event(obs.EventRefineFailed, "s2", "", "exact refinement returned no trees")
	r.event(obs.EventQuarantine, "s3", "", "bad checksum")
	r.event(obs.EventBreaker, "s4", "", "geocoder: closed -> open")
	want := map[string]Summary{
		TriggerEvictError:      {Reason: "disk full", Session: "s1", Tenant: "acme"},
		TriggerRefineFailure:   {Reason: "exact refinement returned no trees", Session: "s2"},
		TriggerStoreQuarantine: {Reason: "s3: bad checksum", Session: "s3"},
		TriggerBreakerOpen:     {Reason: "geocoder: closed -> open", Session: "s4"},
	}
	list := r.Incidents()
	if len(list) != len(want) {
		t.Fatalf("captured %d bundles, want %d: %+v", len(list), len(want), list)
	}
	for _, got := range list {
		w := want[got.Trigger]
		if got.Reason != w.Reason || got.Session != w.Session || got.Tenant != w.Tenant {
			t.Errorf("%s captured %+v, want reason %q session %q tenant %q",
				got.Trigger, got, w.Reason, w.Session, w.Tenant)
		}
	}

	// A stage completion of the SLO stage captures once the fast-burn
	// alert is raised: every refresh far over the threshold.
	for i := 0; i < 10; i++ {
		r.stream.Publish(obs.Event{Kind: obs.KindStage, Name: "rank.mira", Dur: time.Second})
	}
	if n := len(r.Incidents()); n != len(want) {
		t.Fatalf("stages outside the objective captured: %d bundles", n)
	}
	r.stream.Publish(obs.Event{Kind: obs.KindStage, Name: obs.SLOStage, Dur: time.Second, Session: "s5"})
	if got := r.Incidents()[0]; got.Trigger != TriggerSLOFastBurn || got.Session != "s5" {
		t.Fatalf("slow refresh should capture an SLO fast-burn bundle, newest is %+v", got)
	}
}
