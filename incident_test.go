package copycat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copycat/internal/obs/flight"
	"copycat/internal/resilience"
)

// TestFlightRecorderCapturesBreakerIncident is the flight-recorder
// acceptance test: on a deterministic virtual clock, injected service
// faults open a circuit breaker, the breaker-open trigger captures
// exactly one bundle to disk, a second breaker opening inside the
// capture cooldown is suppressed (no second bundle), and the rendered
// post-mortem names the breaker transition, the degraded spans, and the
// affected session.
func TestFlightRecorderCapturesBreakerIncident(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultWorldConfig()
	cfg.FaultRate = 0.9
	cfg.FaultSeed = 7
	sys := NewDemoSystem(cfg)
	sys.EnableTracing() // spans feed the recorder's timeline
	ws := sys.Workspace
	// Attribute the session's events to a named session, as a host does.
	ws.SetStream(ws.Stream().For("sess-demo", ""))
	rec := sys.FlightRecorder()
	if rec == nil {
		t.Fatal("demo system has no flight recorder")
	}
	rec.SetDir(dir)

	// Drive the faulty pipeline until a breaker opens.
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Paste(sel); err != nil {
		t.Fatal(err)
	}
	if err := ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	ws.SetMode(ModeIntegration)
	openService := ""
	for i := 0; i < 20 && openService == ""; i++ {
		ws.RefreshColumnSuggestions()
		for _, b := range sys.Breakers() {
			if b.StateName == "open" {
				openService = b.Service
				break
			}
		}
	}
	if openService == "" {
		t.Fatal("no breaker opened under a 90% fault rate")
	}

	breakerIncidents := func() []IncidentSummary {
		var out []IncidentSummary
		for _, s := range rec.Incidents() {
			if s.Trigger == flight.TriggerBreakerOpen {
				out = append(out, s)
			}
		}
		return out
	}
	captured := breakerIncidents()
	if len(captured) != 1 {
		t.Fatalf("breaker-open captured %d bundles, want exactly 1: %+v", len(captured), captured)
	}
	onDisk := func() []string {
		files, err := filepath.Glob(filepath.Join(dir, "*breaker-open*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	files := onDisk()
	if len(files) != 1 {
		t.Fatalf("disk holds %d breaker-open bundles, want exactly 1: %v", len(files), files)
	}

	// Open a second breaker inside the capture cooldown (which is per
	// trigger kind, not per service): a new transition to open, which the
	// recorder must suppress, not double-capture.
	suppressedBefore := rec.Suppressed()
	b := ws.Resilience.Breaker("second-service")
	for b.State() != resilience.BreakerOpen {
		b.Failure()
	}
	if got := breakerIncidents(); len(got) != 1 {
		t.Fatalf("breaker open inside cooldown captured again: %d bundles", len(got))
	}
	if rec.Suppressed() <= suppressedBefore {
		t.Errorf("re-trip should increment incidents.suppressed (before=%d after=%d)",
			suppressedBefore, rec.Suppressed())
	}
	if files = onDisk(); len(files) != 1 {
		t.Fatalf("suppressed re-trip still wrote a bundle: %v", files)
	}

	// The bundle on disk is self-contained: read it back cold and render
	// the post-mortem.
	inc, err := ReadIncidentBundle(files[0])
	if err != nil {
		t.Fatalf("ReadIncidentBundle: %v", err)
	}
	out := RenderIncident(inc)
	if !strings.Contains(out, "-> open") {
		t.Errorf("post-mortem does not name the breaker transition:\n%s", out)
	}
	if !strings.Contains(out, "DEGRADED") {
		t.Errorf("post-mortem does not flag the degraded spans:\n%s", out)
	}
	if !strings.Contains(out, "sess-demo") {
		t.Errorf("post-mortem does not name the affected session:\n%s", out)
	}
	if !strings.Contains(out, "trigger   breaker.open") {
		t.Errorf("post-mortem does not state the trigger:\n%s", out)
	}

	// The live list serves the same incident.
	live, ok := rec.Incident(inc.ID)
	if !ok {
		t.Fatalf("incident %s not in the live recorder", inc.ID)
	}
	if live.Session != "sess-demo" || live.Trigger != flight.TriggerBreakerOpen {
		t.Errorf("live incident mismatch: %+v", live)
	}
}

// TestFlightRecorderDetachIsInert is the overhead experiment's control
// arm: SetStream(nil) detaches the workspace's stream, every publish
// no-ops, and re-attaching resumes recording.
func TestFlightRecorderDetachIsInert(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	sys.EnableTracing()
	ws := sys.Workspace
	rec := sys.FlightRecorder()
	stream := ws.Stream()

	ws.SetStream(nil)
	if got := sys.FlightRecorder(); got != nil {
		t.Fatal("detach should leave no recorder on the workspace")
	}
	// Spans, decisions, and breaker transitions all publish on the nil
	// stream and no-op.
	_, _, spansBefore := rec.Retained()
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0 := sys.World.Shelters[0]
	sel, err := browser.CopyRows([][]string{{s0.Name, s0.Street, s0.City}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Paste(sel); err != nil {
		t.Fatal(err)
	}
	if _, _, got := rec.Retained(); got != spansBefore {
		t.Errorf("detached recorder still received spans (%d -> %d)", spansBefore, got)
	}

	ws.SetStream(stream)
	if err := ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	ws.SetMode(ModeIntegration)
	ws.RefreshColumnSuggestions()
	if _, _, got := rec.Retained(); got <= spansBefore {
		t.Error("re-attached recorder should resume receiving spans")
	}
	_, _, decisions := rec.Retained()
	if decisions == 0 {
		t.Error("re-attached recorder should receive decision entries")
	}
}

// TestIncidentBundleSIGQUITTrigger exercises the operator
// capture-on-demand path end to end minus the signal itself: the
// sigquit trigger captures whatever the recorder holds right now.
func TestIncidentBundleSIGQUITTrigger(t *testing.T) {
	dir := t.TempDir()
	sys := NewDemoSystem(DefaultWorldConfig())
	rec := sys.FlightRecorder()
	rec.SetDir(dir)
	id, ok := rec.Trigger(flight.TriggerSignal, "operator SIGQUIT", "", "")
	if !ok {
		t.Fatal("sigquit trigger should capture")
	}
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatalf("bundle not on disk: %v", err)
	}
	if !strings.Contains(string(data), `"trigger": "sigquit"`) {
		t.Errorf("bundle does not record the sigquit trigger:\n%s", data)
	}
}
