package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copycat/internal/obs"
	"copycat/internal/obs/flight"
)

// TestAnalyzeIncidentRendersBundle drives -analyze-incident end to end:
// capture a bundle to disk with a live recorder, then render it cold
// from the file and check the post-mortem names the trigger, the
// breaker transition, and the session.
func TestAnalyzeIncidentRendersBundle(t *testing.T) {
	dir := t.TempDir()
	clock := obs.NewVirtualClock()
	clock.Advance(1_000 * time.Second)
	stream := obs.NewStream(clock)
	rec := flight.New(stream, flight.Config{Dir: dir})
	stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: obs.EventBreaker, Session: "s7", Detail: "geocoder: closed -> half-open"})
	id, ok := rec.Trigger(flight.TriggerBreakerOpen, "geocoder tripped", "s7", "acme")
	if !ok {
		t.Fatal("trigger should capture")
	}
	path := filepath.Join(dir, id+".json")

	out, err := capture(t, func() error { return analyzeIncident(path) })
	if err != nil {
		t.Fatalf("analyzeIncident: %v", err)
	}
	for _, want := range []string{
		"incident " + id,
		"trigger   breaker.open — geocoder tripped",
		"session   s7 (tenant acme)",
		"closed -> half-open",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analysis missing %q:\n%s", want, out)
		}
	}

	// Not-a-bundle and missing files fail with useful errors.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := analyzeIncident(bad); err == nil {
		t.Error("analyzeIncident should reject a non-bundle JSON file")
	}
	if err := analyzeIncident(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("analyzeIncident should fail on a missing file")
	}
}
