package main

// The incremental-refresh experiment (P1 in EXPERIMENTS.md): the
// pipeline scenario's steady-state paste/feedback loop timed twice —
// warm, with the plan result cache serving unchanged candidates, and
// cold, with the cache disabled so every refresh recomputes the whole
// learn→search→execute→rank loop — after twin warm and cold sessions
// driven in lockstep have produced identical suggestion lists. The
// gates hold what reproduces across machines: the work counts, the
// allocations per refresh, warm≡cold, and the within-run speedup.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"copycat"
)

// A refresh workload is pipelineRefreshes suggestion refreshes with
// feedback; each mode times refreshReps of them after one untimed
// warmup workload.
const (
	pipelineRefreshes = 30
	refreshReps       = 5
)

// refreshSpeedupFloor is the least cold/warm wall-time ratio the plan
// cache must buy within one run. Ten runs on a 2-CPU Xeon measured
// 75–196×; the floor sits well under that minimum.
const refreshSpeedupFloor = 30

// refreshAllocsBudget is the allowed growth of warm allocations per
// refresh over the committed baseline.
const refreshAllocsBudget = 1.10

// refreshModeReport is one mode's numbers over its timed window.
type refreshModeReport struct {
	WallNs           int64   `json:"wall_ns"`            // best-of-reps workload wall time
	CandidatesRun    int64   `json:"candidates_run"`     // candidate plans actually executed
	PlansReused      int64   `json:"plans_reused"`       // candidates served from the plan cache
	PlansInvalidated int64   `json:"plans_invalidated"`  // cached candidates forced to re-run
	RefreshP99Ns     int64   `json:"refresh_p99_ns"`     // exact p99 over the timed refreshes
	AllocsPerRefresh float64 `json:"allocs_per_refresh"` // heap allocations per refresh with its feedback
}

// refreshReport is the result of the BENCH_4.json report.
type refreshReport struct {
	Refreshes int               `json:"refreshes"`
	Reps      int               `json:"reps"`
	Warm      refreshModeReport `json:"warm"`
	Cold      refreshModeReport `json:"cold"`
	// ReuseFrac is warm plans_reused / (plans_reused + candidates_run):
	// the fraction of candidate plans the warm loop did not execute.
	ReuseFrac float64 `json:"reuse_frac"`
	// Speedup is cold wall time / warm wall time.
	Speedup float64 `json:"speedup"`
	// Equivalent reports whether warm and cold twin sessions produced
	// byte-identical suggestion lists over Lockstep refreshes.
	Equivalent bool `json:"equivalent"`
	Lockstep   int  `json:"lockstep_refreshes"`
}

// refreshFeedback applies the workload's steady-state feedback: alternate
// the accepted completion between the two best suggestions, so MIRA keeps
// moving the same two edges — a recurring dirty set that exercises
// invalidation without pushing other candidates over the suggestion
// threshold.
func refreshFeedback(sys *copycat.System, comps []copycat.Completion, i int) {
	if len(comps) < 2 {
		return
	}
	j, k := i%2, (i+1)%2
	sys.Workspace.Int.AcceptCompletion(comps[j], comps[k:k+1])
}

// refreshWorkload runs pipelineRefreshes suggestion refreshes with
// feedback, appending each refresh's latency to lat.
func refreshWorkload(sys *copycat.System, lat []time.Duration) ([]time.Duration, error) {
	for i := 0; i < pipelineRefreshes; i++ {
		start := time.Now()
		comps := sys.Workspace.RefreshColumnSuggestions()
		lat = append(lat, time.Since(start))
		if len(comps) == 0 {
			return nil, fmt.Errorf("refresh %d returned no completions", i)
		}
		refreshFeedback(sys, comps, i)
	}
	return lat, nil
}

// refreshRun sets up the pipeline scenario, runs one warmup workload to
// settle the caches and the feedback oscillation, then times
// refreshReps repetitions.
func refreshRun(warm bool) (refreshModeReport, error) {
	var rep refreshModeReport
	sys, err := pipelineSetup(copycat.DefaultWorldConfig(), false)
	if err != nil {
		return rep, err
	}
	if !warm {
		sys.Workspace.PlanCache = nil // cold: recompute everything, every refresh
	}
	if _, err := refreshWorkload(sys, nil); err != nil {
		return rep, err
	}
	before := sys.Stats()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	var lat []time.Duration
	best := time.Duration(0)
	for r := 0; r < refreshReps; r++ {
		start := time.Now()
		if lat, err = refreshWorkload(sys, lat); err != nil {
			return rep, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&msAfter)
	after := sys.Stats()
	return refreshModeReport{
		WallNs:           best.Nanoseconds(),
		CandidatesRun:    after.CandidatesRun - before.CandidatesRun,
		PlansReused:      after.PlansReused - before.PlansReused,
		PlansInvalidated: after.PlansInvalidated - before.PlansInvalidated,
		RefreshP99Ns:     percentile(lat, 0.99).Nanoseconds(),
		AllocsPerRefresh: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(len(lat)),
	}, nil
}

// completionsDigest canonically renders a suggestion list — edge, target,
// cost, and every result row — for the warm≡cold comparison.
func completionsDigest(comps []copycat.Completion) string {
	var b strings.Builder
	for _, c := range comps {
		fmt.Fprintf(&b, "%s→%s@%.9g[", c.Edge.ID, c.Target, c.Cost)
		if c.Result != nil {
			for _, a := range c.Result.Rows {
				b.WriteString(a.Row.Key())
				b.WriteByte(';')
			}
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// refreshEquivalence drives a warm and a cold twin session through the
// identical workload, comparing the full suggestion list after every
// refresh. Any divergence is an error — the cache must be invisible in
// the output.
func refreshEquivalence(refreshes int) error {
	warm, err := pipelineSetup(copycat.DefaultWorldConfig(), false)
	if err != nil {
		return err
	}
	cold, err := pipelineSetup(copycat.DefaultWorldConfig(), false)
	if err != nil {
		return err
	}
	cold.Workspace.PlanCache = nil
	for i := 0; i < refreshes; i++ {
		wc := warm.Workspace.RefreshColumnSuggestions()
		cc := cold.Workspace.RefreshColumnSuggestions()
		if wd, cd := completionsDigest(wc), completionsDigest(cc); wd != cd {
			return fmt.Errorf("warm/cold divergence at refresh %d:\nwarm:\n%s\ncold:\n%s", i, wd, cd)
		}
		refreshFeedback(warm, wc, i)
		refreshFeedback(cold, cc, i)
	}
	return nil
}

func expRefresh() error {
	report := refreshReport{Refreshes: pipelineRefreshes, Reps: refreshReps, Lockstep: 2 * pipelineRefreshes}
	divergence := refreshEquivalence(report.Lockstep)
	report.Equivalent = divergence == nil
	var err error
	if report.Cold, err = refreshRun(false); err != nil {
		return err
	}
	if report.Warm, err = refreshRun(true); err != nil {
		return err
	}
	if total := report.Warm.PlansReused + report.Warm.CandidatesRun; total > 0 {
		report.ReuseFrac = float64(report.Warm.PlansReused) / float64(total)
	}
	report.Speedup = float64(report.Cold.WallNs) / float64(report.Warm.WallNs)

	rows := [][]string{{"refreshes per rep", fmt.Sprint(pipelineRefreshes)}}
	for _, m := range []struct {
		name string
		r    refreshModeReport
	}{{"cold", report.Cold}, {"warm", report.Warm}} {
		rows = append(rows,
			[]string{m.name + " wall (best of reps)", time.Duration(m.r.WallNs).String()},
			[]string{m.name + " candidates executed", fmt.Sprint(m.r.CandidatesRun)},
			[]string{m.name + " plans reused", fmt.Sprint(m.r.PlansReused)},
			[]string{m.name + " plans invalidated", fmt.Sprint(m.r.PlansInvalidated)},
			[]string{m.name + " refresh p99 (exact)", time.Duration(m.r.RefreshP99Ns).String()},
			[]string{m.name + " allocs per refresh", fmt.Sprintf("%.0f", m.r.AllocsPerRefresh)},
		)
	}
	rows = append(rows,
		[]string{"reuse fraction", fmt.Sprintf("%.3f", report.ReuseFrac)},
		[]string{"speedup (cold/warm)", fmt.Sprintf("%.2fx", report.Speedup)},
		[]string{"warm ≡ cold", fmt.Sprintf("%v over %d lockstep refreshes", report.Equivalent, report.Lockstep)},
	)
	printTable([]string{"measure", "value"}, rows)

	gates := []gate{
		{"workspace", "refreshes", sameAsBase, 0},
		{"workspace", "reps", sameAsBase, 0},
		{"plancache", "equivalent", sameAsBase, 0},
		{"plancache", "lockstep_refreshes", sameAsBase, 0},
		{"plancache", "speedup", atLeast, refreshSpeedupFloor},
		{"runtime", "warm.allocs_per_refresh", maxRatio, refreshAllocsBudget},
	}
	for _, mode := range []string{"warm", "cold"} {
		gates = append(gates,
			gate{"engine", mode + ".candidates_run", sameAsBase, 0},
			gate{"plancache", mode + ".plans_reused", sameAsBase, 0},
			gate{"plancache", mode + ".plans_invalidated", sameAsBase, 0},
		)
	}
	if err := finish("refresh", report, gates); err != nil {
		return err
	}
	return divergence
}
