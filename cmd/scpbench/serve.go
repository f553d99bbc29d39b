package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"copycat"
	"copycat/internal/obs/flight"
)

// runTelemetryServer implements the -serve flag: it drives a traced
// demo session through the full pipeline so every surface has data,
// serves its telemetry on addr, and holds until `wait` elapses (0 =
// until SIGINT/SIGTERM). The CI smoke job curls this.
//
// With -serve-sessions N it serves a multi-tenant host instead: a
// session manager capped at N sessions with two seeded tenants, so the
// smoke can walk the /sessions lifecycle, drive the table to the cap to
// watch /readyz flip to 503, and lint the per-tenant /metrics families.
// Adding -store-dir makes that host durable: sessions already in the
// store are recovered instead of re-seeding, and the resident fleet is
// checkpointed to disk when the server stops — so a kill + restart over
// the same directory serves the same sessions.
//
// With -serve-faults R the single-session path wraps every builtin
// service in the deterministic fault injector at rate R and drives
// suggestion refreshes until a circuit breaker opens, so by the time the
// server is listening the flight recorder has already captured a real
// breaker-open incident — the CI incident-smoke job relies on this.
// -incident-dir persists every captured bundle to disk, and SIGQUIT
// triggers an operator-requested capture at any point while serving.
func runTelemetryServer(addr string, wait time.Duration, hostSessions int, storeDir string, faults float64, incidentDir string) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if wait > 0 {
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}

	var srv *copycat.TelemetryServer
	var checkpoint func()
	var rec *copycat.IncidentRecorder
	if hostSessions > 0 {
		worldCfg := copycat.DefaultWorldConfig()
		worldCfg.Cities, worldCfg.SheltersPerCity = 3, 3
		sessionCfg := copycat.SessionConfig{
			MaxSessions:   hostSessions,
			EnableTracing: true,
			IncidentDir:   incidentDir,
		}
		var host *copycat.Host
		if storeDir != "" {
			var err error
			if host, err = copycat.NewDurableDemoHost(worldCfg, sessionCfg, storeDir); err != nil {
				return err
			}
			checkpoint = func() {
				if n, err := host.Manager.Checkpoint(); err != nil {
					fmt.Fprintf(os.Stderr, "scpbench: shutdown checkpoint: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "scpbench: checkpointed %d sessions to %s\n", n, storeDir)
				}
			}
		} else {
			host = copycat.NewDemoHost(worldCfg, sessionCfg)
		}
		if recovered := host.Manager.Stats().Recovered; recovered > 0 {
			fmt.Fprintf(os.Stderr, "scpbench: recovered %d sessions from %s\n", recovered, storeDir)
		} else {
			for _, tenant := range []string{"alice", "bob"} {
				if _, _, err := seedSession(host, tenant); err != nil {
					return err
				}
			}
		}
		rec = host.Manager.Flight()
		var err error
		if srv, err = host.Serve(ctx, addr); err != nil {
			return err
		}
	} else {
		cfg := copycat.DefaultWorldConfig()
		if faults > 0 {
			cfg.FaultRate = faults
			cfg.FaultSeed = 7
		}
		sys, err := pipelineSetup(cfg, true)
		if err != nil {
			return err
		}
		rec = sys.FlightRecorder()
		if incidentDir != "" {
			rec.SetDir(incidentDir)
		}
		if faults > 0 {
			// Drive refreshes until a breaker opens (the injector's
			// transient bursts trip it quickly at smoke rates), so the
			// flight recorder has a breaker-open incident to serve. Under
			// faults a refresh can legitimately return zero completions, so
			// skip the completions check here.
			opened := false
			for i := 0; i < 50 && !opened; i++ {
				sys.Workspace.RefreshColumnSuggestions()
				for _, b := range sys.Breakers() {
					if b.StateName == "open" {
						opened = true
						break
					}
				}
			}
			if !opened {
				return fmt.Errorf("no breaker opened after fault-injected refreshes (rate %.2f)", faults)
			}
			fmt.Fprintf(os.Stderr, "scpbench: fault injection tripped a breaker; %d incident(s) captured\n", rec.Captured())
		} else if comps := sys.Workspace.RefreshColumnSuggestions(); len(comps) == 0 {
			return fmt.Errorf("telemetry session produced no completions")
		}
		if srv, err = sys.Serve(ctx, addr); err != nil {
			return err
		}
	}

	// SIGQUIT is the operator's "capture now" button: snapshot the flight
	// recorder's timeline into an incident bundle without stopping the
	// server.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			if id, ok := rec.Trigger(flight.TriggerSignal, "operator SIGQUIT", "", ""); ok {
				fmt.Fprintf(os.Stderr, "scpbench: SIGQUIT captured incident %s\n", id)
			} else {
				fmt.Fprintln(os.Stderr, "scpbench: SIGQUIT capture suppressed (cooldown)")
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "scpbench: telemetry server on http://%s — /metrics /healthz /readyz /slo /trace/stream /decisions /incidents /sessions /debug/pprof\n", srv.Addr())
	err := srv.Wait()
	if checkpoint != nil {
		checkpoint()
	}
	return err
}

// analyzeIncident implements -analyze-incident: load one on-disk
// incident bundle and print its post-mortem timeline — the same
// rendering the REPL's `:incidents <id>` produces from a live recorder.
func analyzeIncident(path string) error {
	inc, err := copycat.ReadIncidentBundle(path)
	if err != nil {
		return err
	}
	fmt.Print(copycat.RenderIncident(inc))
	return nil
}
