package main

// The session-capacity experiment (C1 in EXPERIMENTS.md): a multi-tenant
// host serving a growing fleet of sessions from a fixed memory budget,
// hammered by a worker pool doing attach → suggestion refresh → release.
// As the fleet outgrows the budget the LRU evictor pushes idle sessions
// to their snapshots and attaches transparently reload them, so the
// curve shows where eviction churn starts to tax the p99 and whether
// availability holds at the knee. Wall-clock latency is too
// machine-dependent to gate, so the gates hold the curve's structure:
// the grid, availability ≥ 99% at every point, admission rejections at
// every point, and eviction+reload churn at the knee (the largest
// fleet).

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"copycat"
)

// capacityBudget is the fixed aggregate memory budget every grid point
// runs under. Small enough that the largest fleet cannot stay resident
// (steady eviction/reload churn at the knee), large enough that the
// smallest fleet never evicts.
const capacityBudget = 2 << 20

// capacityWorkers is the attach/refresh/release worker pool size.
const capacityWorkers = 8

// capacityOpsPerWorker is how many operations each worker performs per
// grid point.
const capacityOpsPerWorker = 50

// capacityFleets is the session-count grid.
var capacityFleets = []int{4, 16, 48}

// capacityPoint is one fleet size's measurements.
type capacityPoint struct {
	Sessions  int     `json:"sessions"`
	Workers   int     `json:"workers"`
	Attempts  int64   `json:"attempts"`     // attach+refresh operations attempted
	Successes int64   `json:"successes"`    // operations that returned suggestions
	Avail     float64 `json:"availability"` // successes / attempts
	P50Ns     int64   `json:"attach_refresh_p50_ns"`
	P99Ns     int64   `json:"attach_refresh_p99_ns"`
	Evictions int64   `json:"evictions"`          // sessions pushed to snapshots
	Reloads   int64   `json:"reloads"`            // transparent reloads on attach
	Rejected  int64   `json:"admission_rejected"` // creates shed at the full table
	Resident  int     `json:"resident"`           // resident sessions after quiescence
	ResidentB int64   `json:"resident_bytes"`     // estimated resident footprint
}

// capacityReport is the result of the BENCH_6.json report.
type capacityReport struct {
	MemoryBudget int64           `json:"memory_budget_bytes"`
	Points       []capacityPoint `json:"points"`
}

// capacityRun measures one fleet size: build a host capped at exactly
// that many sessions, seed the fleet, then run the worker pool.
func capacityRun(worldCfg copycat.WorldConfig, fleet int) (*capacityPoint, error) {
	host := copycat.NewDemoHost(worldCfg, copycat.SessionConfig{
		MaxSessions:  fleet,
		MemoryBudget: capacityBudget,
	})

	ids := make([]string, fleet)
	for i := range ids {
		sys, err := host.Create(fmt.Sprintf("tenant%02d", i%8))
		if err != nil {
			return nil, fmt.Errorf("create %d: %w", i, err)
		}
		if err := seed(sys); err != nil {
			sys.Release()
			return nil, fmt.Errorf("seed %d: %w", i, err)
		}
		ids[i] = sys.Session.ID()
		sys.Release()
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		attempts  int64
		successes int64
		firstErr  error
	)
	var wg sync.WaitGroup
	for g := 0; g < capacityWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(fleet)*1000 + int64(g)))
			local := make([]time.Duration, 0, capacityOpsPerWorker)
			var localAttempts, localOK int64
			for op := 0; op < capacityOpsPerWorker; op++ {
				if op%10 == 9 {
					// The table is full by construction: this create must be
					// shed by admission control, not grow the fleet.
					if _, err := host.Create("overflow"); err == nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = errors.New("create over the session cap was admitted")
						}
						mu.Unlock()
					}
					continue
				}
				id := ids[rng.Intn(len(ids))]
				localAttempts++
				start := time.Now()
				sys, err := host.Attach(id)
				if err != nil {
					continue
				}
				n := len(sys.Workspace.RefreshColumnSuggestions())
				sys.Release()
				local = append(local, time.Since(start))
				if n > 0 {
					localOK++
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			attempts += localAttempts
			successes += localOK
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	st := host.Manager.Stats()
	pt := &capacityPoint{
		Sessions:  fleet,
		Workers:   capacityWorkers,
		Attempts:  attempts,
		Successes: successes,
		P50Ns:     percentile(latencies, 0.50).Nanoseconds(),
		P99Ns:     percentile(latencies, 0.99).Nanoseconds(),
		Evictions: st.Evictions,
		Reloads:   st.Reloads,
		Rejected:  st.Rejected,
		Resident:  st.Resident,
		ResidentB: st.ResidentBytes,
	}
	if attempts > 0 {
		pt.Avail = float64(successes) / float64(attempts)
	}
	return pt, nil
}

// expCapacity runs the full fleet-size grid and renders the capacity
// curve.
func expCapacity() error {
	worldCfg := copycat.DefaultWorldConfig()
	worldCfg.Cities, worldCfg.SheltersPerCity = 3, 3

	report := capacityReport{MemoryBudget: capacityBudget}
	for _, fleet := range capacityFleets {
		pt, err := capacityRun(worldCfg, fleet)
		if err != nil {
			return fmt.Errorf("fleet %d: %w", fleet, err)
		}
		report.Points = append(report.Points, *pt)
	}

	var rows [][]string
	for _, pt := range report.Points {
		rows = append(rows, []string{
			fmt.Sprint(pt.Sessions),
			fmt.Sprintf("%.4f", pt.Avail),
			time.Duration(pt.P50Ns).String(),
			time.Duration(pt.P99Ns).String(),
			fmt.Sprint(pt.Evictions),
			fmt.Sprint(pt.Reloads),
			fmt.Sprint(pt.Rejected),
			fmt.Sprintf("%d (%dKiB)", pt.Resident, pt.ResidentB>>10),
		})
	}
	printTable([]string{"sessions", "availability", "p50", "p99", "evictions", "reloads", "shed", "resident"}, rows)

	knee := fmt.Sprintf("points.sessions=%d.", capacityFleets[len(capacityFleets)-1])
	return finish("capacity", report, []gate{
		{"session", "memory_budget_bytes", sameAsBase, 0},
		{"session", "points.*.sessions", sameAsBase, 0},
		{"session", "points.*.availability", atLeast, 0.99},
		{"session", "points.*.admission_rejected", atLeast, 1},
		{"session", knee + "evictions", atLeast, 1},
		{"session", knee + "reloads", atLeast, 1},
	})
}
