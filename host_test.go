package copycat_test

// Host-level integration tests: a multi-tenant fleet served over the
// telemetry endpoints, with concurrent /metrics scrapes (lint-checked)
// and a live /trace/stream follower while workers churn sessions
// through attach → refresh → release under a binding memory budget.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"copycat"
	"copycat/internal/obs"
	"copycat/internal/obs/serve"
)

// hostWorldConfig keeps the fleet tests fast: a small world is enough
// to exercise the whole import→integrate pipeline per session.
func hostWorldConfig() copycat.WorldConfig {
	cfg := copycat.DefaultWorldConfig()
	cfg.Cities, cfg.SheltersPerCity = 3, 3
	return cfg
}

// seedSystem drives a freshly created session to integration mode
// through the public facade: paste two shelters, accept the
// generalization, import the contacts sheet, switch modes.
func seedSystem(sys *copycat.System) error {
	w := sys.World
	ws := sys.Workspace
	browser := sys.OpenBrowser(sys.ShelterSite(copycat.StyleTable))
	s0, s1 := w.Shelters[0], w.Shelters[1]
	sel, err := browser.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		return err
	}
	if err := ws.Paste(sel); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	sheetDoc := w.ContactsSpreadsheet()
	grid := sheetDoc.Grid()
	ws.SelectTab("Contacts")
	if err := ws.Paste(copycat.Selection{Cells: grid[1:3], Doc: sheetDoc}); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	ws.SelectTab("Sheet1")
	ws.SetMode(copycat.ModeIntegration)
	return nil
}

// seedFleet creates and seeds n sessions concurrently, returning their IDs.
func seedFleet(t *testing.T, host *copycat.Host, n, workers int) []string {
	t.Helper()
	ids := make([]string, n)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				sys, err := host.Create(fmt.Sprintf("tenant%02d", i%10))
				if err != nil {
					t.Errorf("create %d: %v", i, err)
					return
				}
				if err := seedSystem(sys); err != nil {
					t.Errorf("seed %d: %v", i, err)
				}
				ids[i] = sys.Session.ID()
				sys.Release()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return ids
}

// churnFleet runs workers × ops attach/refresh/release rounds over ids,
// counting refreshes that produced suggestions.
func churnFleet(t *testing.T, host *copycat.Host, ids []string, workers, ops int) int64 {
	t.Helper()
	var refreshes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 77))
			for op := 0; op < ops; op++ {
				id := ids[rng.Intn(len(ids))]
				sys, err := host.Attach(id)
				if err != nil {
					t.Errorf("attach %s: %v", id, err)
					continue
				}
				if n := len(sys.Workspace.RefreshColumnSuggestions()); n == 0 {
					t.Errorf("session %s: no suggestions after attach", id)
				} else {
					refreshes.Add(1)
				}
				sys.Release()
			}
		}(g)
	}
	wg.Wait()
	return refreshes.Load()
}

// runFleet is the shared body of the always-on and race-build fleet
// tests: serve the host, scrape and follow while churning, then check
// the invariants — bounded memory, churn observed, telemetry whole.
// requireReady demands a 200 from /readyz at quiescence; the
// acceptance-scale fleet passes false because sustained reload churn
// can legitimately trip the fast-burn SLO alert, in which case the
// correct readiness answer is a shedding 503, not a 200. The host runs
// on a virtual clock, and so do its hosted workspaces (they have no
// clock of their own), so the SLO windows see the fleet's refreshes
// and never the wall-clock latency of a loaded test machine.
func runFleet(t *testing.T, sessions, ops int, budget int64, requireReady bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	host := copycat.NewDemoHost(hostWorldConfig(), copycat.SessionConfig{
		MemoryBudget:  budget,
		EnableTracing: true,
		Clock:         obs.NewVirtualClock(),
	})
	srv, err := host.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		srv.Wait()
	}()
	base := "http://" + srv.Addr()

	const workers = 8
	ids := seedFleet(t, host, sessions, workers)

	// Scraper: hammer /metrics during the churn, linting every body.
	scrapeCtx, stopScrape := context.WithCancel(ctx)
	var scrapes atomic.Int64
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for scrapeCtx.Err() == nil {
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("metrics scrape: %d", resp.StatusCode)
				return
			}
			if err := serve.Lint(strings.NewReader(string(body))); err != nil {
				t.Errorf("metrics lint: %v", err)
				return
			}
			scrapes.Add(1)
		}
	}()

	// Follower: hold /trace/stream?follow=1 open, counting spans live.
	var spans atomic.Int64
	var followWG sync.WaitGroup
	followWG.Add(1)
	go func() {
		defer followWG.Done()
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/trace/stream?follow=1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if strings.Contains(sc.Text(), `"session"`) {
				spans.Add(1)
			}
		}
	}()

	refreshes := churnFleet(t, host, ids, workers, ops)
	stopScrape()
	scrapeWG.Wait()

	st := host.Manager.Stats()
	if st.Sessions != sessions {
		t.Fatalf("fleet size %d, want %d", st.Sessions, sessions)
	}
	if st.Evictions == 0 || st.Reloads == 0 {
		t.Fatalf("expected eviction churn under the %dB budget: %+v", budget, st)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident estimate %d over budget %d after quiescence", st.ResidentBytes, budget)
	}
	if refreshes == 0 {
		t.Fatal("no successful refreshes")
	}
	if scrapes.Load() == 0 {
		t.Fatal("no /metrics scrapes completed during the churn")
	}

	// Readiness answers coherently: 200 when nothing sheds, a labelled
	// shedding 503 when the churn tripped the fast-burn alert. The
	// session list reflects the whole fleet either way.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case !requireReady && resp.StatusCode == http.StatusServiceUnavailable &&
		strings.Contains(string(ready), "shedding"):
		t.Logf("host shedding at quiescence (expected at this scale): %s", ready)
	default:
		t.Fatalf("readyz: %d %s", resp.StatusCode, ready)
	}
	resp, err = http.Get(base + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(list), `"id"`); got != sessions {
		t.Fatalf("session list has %d entries, want %d", got, sessions)
	}

	// Shut the stream down and confirm the follower saw session-tagged
	// spans while the churn ran.
	cancel()
	followWG.Wait()
	if spans.Load() == 0 {
		t.Fatal("trace follower saw no session-tagged spans")
	}
	t.Logf("fleet %d: %d refreshes, %d evictions, %d reloads, %d scrapes, %d spans followed, resident %dB",
		sessions, refreshes, st.Evictions, st.Reloads, scrapes.Load(), spans.Load(), st.ResidentBytes)
}

// TestHostFleetTelemetry is the always-on fleet test: 64 sessions under
// a 2MiB budget with live scraping and span following. A ready 200 at
// quiescence is demanded only without the race detector: race
// instrumentation slows refreshes enough to trip the fast-burn SLO
// alert, and shedding is then the host's correct answer.
func TestHostFleetTelemetry(t *testing.T) {
	runFleet(t, 64, 30, 2<<20, !raceEnabled)
}
