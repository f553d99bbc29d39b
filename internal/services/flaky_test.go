package services

import (
	"testing"
	"time"

	"copycat/internal/obs"
	"copycat/internal/resilience"
	"copycat/internal/table"
	"copycat/internal/webworld"
)

func testWorld(t *testing.T) *webworld.World {
	t.Helper()
	return webworld.Generate(webworld.Config{Seed: 3, Cities: 4, SheltersPerCity: 3})
}

func locatorInput(w *webworld.World) table.Tuple {
	return table.Tuple{table.S(w.Shelters[0].Name)}
}

func TestFlakyServiceIsDeterministicAcrossInstances(t *testing.T) {
	w := testWorld(t)
	cfg := FaultConfig{Seed: 11, TransientRate: 0.5}
	a := NewFlakyService(NewShelterLocator(w), cfg)
	b := NewFlakyService(NewShelterLocator(w), cfg)
	for i := 0; i < 40; i++ {
		in := table.Tuple{table.S(w.Shelters[i%len(w.Shelters)].Name)}
		_, errA := a.Call(in)
		_, errB := b.Call(in)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("call %d diverged: %v vs %v", i, errA, errB)
		}
	}
	if a.Faults() != b.Faults() {
		t.Fatalf("fault counts diverged: %d vs %d", a.Faults(), b.Faults())
	}
}

func TestFlakyServiceApproximatesConfiguredRate(t *testing.T) {
	w := testWorld(t)
	f := NewFlakyService(NewShelterLocator(w), FaultConfig{Seed: 5, TransientRate: 0.3})
	in := locatorInput(w)
	n := 2000
	for i := 0; i < n; i++ {
		_, _ = f.Call(in) // each call is a new attempt → a fresh draw
	}
	rate := float64(f.Faults()) / float64(n)
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("observed fault rate %.3f, want ≈0.3", rate)
	}
}

func TestFlakyServiceRetriesDrawFresh(t *testing.T) {
	// With a 60% rate, 12 attempts on the same key should see both
	// outcomes — retries must not be doomed to repeat the first draw.
	w := testWorld(t)
	f := NewFlakyService(NewShelterLocator(w), FaultConfig{Seed: 2, TransientRate: 0.6})
	in := locatorInput(w)
	var ok, fail int
	for i := 0; i < 12; i++ {
		if _, err := f.Call(in); err != nil {
			if !resilience.Transient(err) {
				t.Fatalf("injected fault must be transient: %v", err)
			}
			fail++
		} else {
			ok++
		}
	}
	if ok == 0 || fail == 0 {
		t.Errorf("12 attempts all agreed (ok=%d fail=%d); retries are not drawing fresh", ok, fail)
	}
}

func TestFlakyServiceOutage(t *testing.T) {
	w := testWorld(t)
	f := NewFlakyService(NewShelterLocator(w), FaultConfig{Seed: 1, Outage: true})
	for i := 0; i < 5; i++ {
		if _, err := f.Call(locatorInput(w)); err == nil || !resilience.Transient(err) {
			t.Fatalf("outage must fail transiently, got %v", err)
		}
	}
	if f.Calls() != 5 || f.Faults() != 5 {
		t.Errorf("calls=%d faults=%d want 5/5", f.Calls(), f.Faults())
	}
}

func TestFlakyServiceInjectsVirtualLatency(t *testing.T) {
	w := testWorld(t)
	clock := obs.NewVirtualClock()
	f := NewFlakyService(NewShelterLocator(w), FaultConfig{
		Seed:             9,
		BaseLatency:      2 * time.Millisecond,
		LatencySpikeRate: 0.5,
		LatencySpike:     200 * time.Millisecond,
		Clock:            clock,
	})
	t0 := clock.Now()
	n := 50
	for i := 0; i < n; i++ {
		in := table.Tuple{table.S(w.Shelters[i%len(w.Shelters)].Name)}
		if _, err := f.Call(in); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clock.Now().Sub(t0)
	min := time.Duration(n) * 2 * time.Millisecond
	if elapsed < min {
		t.Errorf("elapsed %v < base latency floor %v", elapsed, min)
	}
	if elapsed < 200*time.Millisecond {
		t.Errorf("elapsed %v; expected at least one latency spike", elapsed)
	}
	// Pass-through sanity: the wrapped service still answers.
	rows, err := f.Call(locatorInput(w))
	if err == nil && len(rows) == 0 {
		t.Error("wrapped locator returned no rows for a known shelter")
	}
}
