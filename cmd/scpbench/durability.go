package main

// The durability experiment (D1 in EXPERIMENTS.md): the durable session
// tier measured end to end. A file-backed demo host seeds a fleet, then
// each session is driven through explicit evict → attach (transparent
// reload from disk) cycles to price both halves of the snapshot round
// trip; the store's raw-vs-disk byte counts give the on-disk gzip
// compression ratio; and finally the host is checkpointed, dropped, and
// a second host is rebuilt over the same directory — the crash-recovery
// path — which must re-register every session and serve suggestions
// from each one. Wall-clock latencies are machine-dependent, so the
// gates hold the structure: the grid, ≥ 2× on-disk compression on real
// snapshots, and every session checkpointed and recovered.

import (
	"fmt"
	"os"
	"time"

	"copycat"
)

// durabilitySessions is the fleet size the experiment seeds.
const durabilitySessions = 8

// durabilityCycles is how many evict→reload round trips each session
// makes.
const durabilityCycles = 4

// durabilityReport is the result of the BENCH_7.json report.
type durabilityReport struct {
	Sessions         int     `json:"sessions"`
	Cycles           int     `json:"cycles"`
	EvictP50Ns       int64   `json:"evict_p50_ns"`
	EvictP99Ns       int64   `json:"evict_p99_ns"`
	ReloadP50Ns      int64   `json:"reload_p50_ns"`
	ReloadP99Ns      int64   `json:"reload_p99_ns"`
	RawBytes         int64   `json:"raw_bytes"`  // uncompressed snapshot bytes on the store
	DiskBytes        int64   `json:"disk_bytes"` // bytes actually on disk (header + gzip)
	CompressionRatio float64 `json:"compression_ratio"`
	Checkpointed     int     `json:"checkpointed"` // sessions written by the shutdown checkpoint
	Recovered        int64   `json:"recovered"`    // sessions re-registered by the rebuilt host
	RecoverNs        int64   `json:"recover_ns"`   // wall time to open the store and rebuild the manager
}

// expDurability measures the durable session tier.
func expDurability() error {
	worldCfg := copycat.DefaultWorldConfig()
	worldCfg.Cities, worldCfg.SheltersPerCity = 3, 3

	dir, err := os.MkdirTemp("", "scpbench-durability-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	host, err := copycat.NewDurableDemoHost(worldCfg, copycat.SessionConfig{}, dir)
	if err != nil {
		return err
	}
	ids := make([]string, durabilitySessions)
	suggestions := make([]int, durabilitySessions)
	for i := range ids {
		if ids[i], suggestions[i], err = seedSession(host, fmt.Sprintf("tenant%02d", i%4)); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}

	// Evict/reload cycles: every evict writes a compressed, checksummed
	// snapshot file; every attach reads, verifies, inflates, and replays
	// it.
	var evictLat, reloadLat []time.Duration
	for c := 0; c < durabilityCycles; c++ {
		for i, id := range ids {
			start := time.Now()
			if err := host.Manager.Evict(id); err != nil {
				return fmt.Errorf("cycle %d: evict %s: %w", c, id, err)
			}
			evictLat = append(evictLat, time.Since(start))
			start = time.Now()
			sys, err := host.Attach(id)
			if err != nil {
				return fmt.Errorf("cycle %d: attach %s: %w", c, id, err)
			}
			reloadLat = append(reloadLat, time.Since(start))
			n := len(sys.Workspace.RefreshColumnSuggestions())
			sys.Release()
			if n != suggestions[i] {
				return fmt.Errorf("cycle %d: session %s served %d suggestions after reload, want %d", c, id, n, suggestions[i])
			}
		}
	}

	// Graceful shutdown: checkpoint the whole fleet to disk, then drop
	// the host and rebuild over the same directory — the crash-recovery
	// path.
	checkpointed, err := host.Manager.Checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	storeStats := host.Manager.Store().(*copycat.SessionFileStore).Stats()

	start := time.Now()
	host2, err := copycat.NewDurableDemoHost(worldCfg, copycat.SessionConfig{}, dir)
	if err != nil {
		return fmt.Errorf("rebuild over %s: %w", dir, err)
	}
	recoverNs := time.Since(start).Nanoseconds()
	st2 := host2.Manager.Stats()
	for i, id := range ids {
		sys, err := host2.Attach(id)
		if err != nil {
			return fmt.Errorf("attach %s after recovery: %w", id, err)
		}
		n := len(sys.Workspace.RefreshColumnSuggestions())
		tenant := sys.Session.Tenant()
		sys.Release()
		if n != suggestions[i] {
			return fmt.Errorf("session %s served %d suggestions after recovery, want %d", id, n, suggestions[i])
		}
		if want := fmt.Sprintf("tenant%02d", i%4); tenant != want {
			return fmt.Errorf("session %s recovered under tenant %q, want %q", id, tenant, want)
		}
	}

	report := durabilityReport{
		Sessions:         durabilitySessions,
		Cycles:           durabilityCycles,
		RawBytes:         storeStats.RawBytes,
		DiskBytes:        storeStats.DiskBytes,
		CompressionRatio: storeStats.CompressionRatio(),
		Checkpointed:     checkpointed,
		Recovered:        st2.Recovered,
		RecoverNs:        recoverNs,
		EvictP50Ns:       percentile(evictLat, 0.50).Nanoseconds(),
		EvictP99Ns:       percentile(evictLat, 0.99).Nanoseconds(),
		ReloadP50Ns:      percentile(reloadLat, 0.50).Nanoseconds(),
		ReloadP99Ns:      percentile(reloadLat, 0.99).Nanoseconds(),
	}

	printTable([]string{"measure", "value"}, [][]string{
		{"sessions × evict/reload cycles", fmt.Sprintf("%d × %d", report.Sessions, report.Cycles)},
		{"evict (snapshot+compress+fsync) p50 / p99", fmt.Sprintf("%s / %s", time.Duration(report.EvictP50Ns), time.Duration(report.EvictP99Ns))},
		{"reload (read+verify+replay) p50 / p99", fmt.Sprintf("%s / %s", time.Duration(report.ReloadP50Ns), time.Duration(report.ReloadP99Ns))},
		{"snapshot bytes raw → disk", fmt.Sprintf("%dKiB → %dKiB", report.RawBytes>>10, report.DiskBytes>>10)},
		{"compression ratio", fmt.Sprintf("%.1f×", report.CompressionRatio)},
		{"checkpointed at shutdown", fmt.Sprint(report.Checkpointed)},
		{"recovered by rebuilt host", fmt.Sprint(report.Recovered)},
		{"recovery time (open store + rebuild manager)", time.Duration(report.RecoverNs).String()},
	})

	return finish("durability", report, []gate{
		{"session", "sessions", sameAsBase, 0},
		{"session", "cycles", sameAsBase, 0},
		{"persist", "compression_ratio", atLeast, 2},
		{"session", "checkpointed", atLeast, durabilitySessions},
		{"session", "recovered", atLeast, durabilitySessions},
	})
}
