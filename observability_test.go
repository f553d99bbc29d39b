package copycat

// System-level observability tests: the trace export is byte-identical
// across identical sessions on a virtual clock (even though candidate
// plans execute on a parallel worker pool), and the metrics/decision
// surfaces report the suggestion loop end to end.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"copycat/internal/obs"
)

// tracedDemoSession runs the demo scenario (paste two shelters, accept,
// integration mode, two suggestion refreshes, reject one completion)
// with tracing on a frozen virtual clock and returns the system.
func tracedDemoSession(t *testing.T) *System {
	t.Helper()
	sys := NewDemoSystem(DefaultWorldConfig())
	sys.Workspace.SetClock(obs.NewVirtualClock())
	sys.EnableTracing()
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City}, {s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Workspace.Paste(sel); err != nil {
		t.Fatal(err)
	}
	if err := sys.Workspace.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	sys.Workspace.SetMode(ModeIntegration)
	for i := 0; i < 2; i++ {
		if comps := sys.Workspace.RefreshColumnSuggestions(); len(comps) == 0 {
			t.Fatal("no completions")
		}
	}
	comps := sys.Workspace.PendingColumns()
	if err := sys.Workspace.RejectColumn(len(comps) - 1); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestTraceDeterministicAcrossSessions: same seed, same virtual clock,
// same user actions → byte-identical Chrome trace JSON, despite the
// candidate plans racing on the parallel executor.
func TestTraceDeterministicAcrossSessions(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		sys := tracedDemoSession(t)
		var buf bytes.Buffer
		if err := sys.TraceTo(&buf); err != nil {
			t.Fatal(err)
		}
		runs[i] = buf.Bytes()
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("trace JSON differs across identical sessions:\nrun0 %d bytes, run1 %d bytes", len(runs[0]), len(runs[1]))
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(runs[0], &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
	}
	for _, want := range []string{"learn.generalize", "learn.type", "sourcegraph.discover", "suggest.refresh", "rank.mira"} {
		if !seen[want] {
			t.Errorf("trace missing stage span %q", want)
		}
	}
	var candidates int
	for _, e := range doc.TraceEvents {
		if e.Cat == "candidate" {
			candidates++
		}
	}
	if candidates == 0 {
		t.Error("trace has no per-candidate spans")
	}
}

// TestSystemMetricsAndDecisions: the unified snapshot carries engine
// counters, cache gauges, and per-stage histograms, and Why() explains
// candidate outcomes.
func TestSystemMetricsAndDecisions(t *testing.T) {
	sys := tracedDemoSession(t)
	snap := sys.Metrics()
	if snap.Counters["engine.service_calls"] == 0 {
		t.Error("engine.service_calls counter not folded into snapshot")
	}
	if snap.Gauges["cache.entries"] <= 0 {
		t.Error("cache.entries gauge missing")
	}
	hr, ok := snap.Gauges["cache.hit_rate"]
	if !ok || hr <= 0 || hr > 1 {
		t.Errorf("cache.hit_rate gauge out of range: %v (present %v)", hr, ok)
	}
	if h, ok := snap.Histograms["latency.suggest.refresh"]; !ok || h.Count < 2 {
		t.Errorf("latency.suggest.refresh histogram missing or undercounted: %+v", h)
	}
	rendered := RenderMetrics(snap)
	for _, want := range []string{"engine.service_calls", "cache.hit_rate", "latency.suggest.refresh", "p95"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("RenderMetrics output missing %q", want)
		}
	}

	if lines := sys.Why(""); len(lines) == 0 {
		t.Fatal("decision log empty after a full session")
	}
	found := false
	for _, l := range sys.Why("Zipcode Resolver") {
		if strings.Contains(l, "Zipcode Resolver") {
			found = true
		} else {
			t.Errorf("Why(\"Zipcode Resolver\") returned unrelated line %q", l)
		}
	}
	if !found {
		t.Error("Why(candidate) returned nothing for a candidate the session scored")
	}

	sys.ResetMetrics()
	after := sys.Metrics()
	if n := after.Counters["engine.service_calls"]; n != 0 {
		t.Errorf("ResetMetrics left engine.service_calls = %d", n)
	}
	if len(sys.Why("")) != 0 {
		t.Error("ResetMetrics left decisions behind")
	}
}
