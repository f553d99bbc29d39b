package copycat

import (
	"fmt"
	"strings"
	"testing"

	"copycat/internal/obs"
	"copycat/internal/resilience"
	"copycat/internal/services"
)

// runFaultyPipeline drives the full paste → accept → integrate →
// column-completion flow on a demo system with the given fault rate and
// returns the system and the completions.
func runFaultyPipeline(t *testing.T, rate float64) (*System, int) {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.FaultRate = rate
	cfg.FaultSeed = 7
	sys := NewDemoSystem(cfg)
	browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
	s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
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
	return sys, len(sys.Workspace.RefreshColumnSuggestions())
}

// TestPipelineSurvivesTwentyPercentFaults is the headline acceptance
// check: with a 20% transient fault rate on every builtin service, the
// full suggestion pipeline still returns results, with degradation
// accounted in the system stats.
func TestPipelineSurvivesTwentyPercentFaults(t *testing.T) {
	sys, ncomps := runFaultyPipeline(t, 0.2)
	if ncomps == 0 {
		t.Fatal("no completions survived a 20% fault rate")
	}
	snap := sys.Stats()
	if snap.ServiceCalls == 0 {
		t.Error("no service calls recorded")
	}
	if snap.Retries == 0 {
		t.Error("20% faults should force retries")
	}
	if sys.Clock == nil {
		t.Fatal("faulty demo system should carry a virtual clock")
	}
	if sys.Workspace.Resilience == nil {
		t.Fatal("faulty demo system should carry a resilience layer")
	}
}

// TestPipelineSurvivesNinetyPercentFaults exercises heavy degradation:
// breakers trip and most rows degrade, but nothing panics or errors.
func TestPipelineSurvivesNinetyPercentFaults(t *testing.T) {
	sys, _ := runFaultyPipeline(t, 0.9)
	snap := sys.Stats()
	if snap.DegradedRows == 0 && snap.BreakerTrips == 0 {
		t.Error("90% faults should degrade rows or trip breakers")
	}
	// The stats renderer surfaces the new counters.
	text := fmt.Sprint(snap)
	for _, want := range []string{"retries", "degraded rows", "breaker trips"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats output missing %q:\n%s", want, text)
		}
	}
}

// TestZeroFaultRateIsTransparent checks the transparency acceptance
// criterion: a resilience layer over fault-free services changes nothing
// — same completions, same rendered workspace as a plain demo system.
func TestZeroFaultRateIsTransparent(t *testing.T) {
	run := func(wrap bool) (string, []string) {
		sys := NewDemoSystem(DefaultWorldConfig())
		if wrap {
			// Manually install the resilience stack over zero-fault
			// injected services — the layer itself, not the faults.
			clock := obs.NewVirtualClock()
			policy := resilience.DefaultPolicy()
			policy.Clock = clock
			sys.Workspace.Resilience = resilience.NewCaller(policy, resilience.DefaultBreakerConfig())
			for _, src := range sys.Catalog.All() {
				if src.Svc != nil {
					src.Svc = services.NewFlakyService(src.Svc, services.FaultConfig{Seed: 7, Clock: clock})
				}
			}
		}
		browser := sys.OpenBrowser(sys.ShelterSite(StyleTable))
		s0, s1 := sys.World.Shelters[0], sys.World.Shelters[1]
		sel, err := browser.CopyRows([][]string{
			{s0.Name, s0.Street, s0.City},
			{s1.Name, s1.Street, s1.City},
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
		comps := sys.Workspace.RefreshColumnSuggestions()
		var targets []string
		for _, c := range comps {
			targets = append(targets, fmt.Sprintf("%s@%d", c.Target, len(c.Result.Rows)))
			if note := c.PartialNote(); note != "" {
				t.Errorf("zero-fault completion reported partial results: %s", note)
			}
		}
		return sys.Workspace.Render(), targets
	}
	plainRender, plainComps := run(false)
	wrappedRender, wrappedComps := run(true)
	if plainRender != wrappedRender {
		t.Error("resilience layer changed the rendered workspace at zero fault rate")
	}
	if fmt.Sprint(plainComps) != fmt.Sprint(wrappedComps) {
		t.Errorf("completions diverged: %v vs %v", plainComps, wrappedComps)
	}
}

// TestFaultRateZeroConfigMatchesPlain checks NewDemoSystem with
// FaultRate 0 builds exactly a plain system (no clock, no caller).
func TestFaultRateZeroConfigMatchesPlain(t *testing.T) {
	sys := NewDemoSystem(DefaultWorldConfig())
	if sys.Clock != nil || sys.Workspace.Resilience != nil {
		t.Error("zero fault rate must not install the resilience stack")
	}
}
