package main

// The scale experiment (S1 in EXPERIMENTS.md): suggestion latency on
// worlds 10–100x the demo size. Each scale arm generates a seeded scaled
// webworld, loads every stitching chain as narrow fragment sources, and
// times the top-query search for one chain's six fragments two ways —
// the tiered solver (SPCSH answer now, exact refinement in the
// background) and exact-only (the pre-tiering behavior, forced by
// raising the inline-exact thresholds). Recorded per arm: first-answer
// p50/p99, allocs/op and bytes/op on the suggest path, and the
// SPCSH-vs-exact top-1 agreement (the inline heuristic answer compared
// to the refined exact ranking it is later re-ranked by).
// `-scale-grid 1,10` runs the reduced CI grid; the gates cover the
// scales measured.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"copycat/internal/engine"
	"copycat/internal/intlearn"
	"copycat/internal/plancache"
	"copycat/internal/scenario"
	"copycat/internal/webworld"
)

// Scale grid: seed and suggestion depth match the accuracy experiment;
// iteration counts shrink with scale to keep exact-only arms bounded.
const (
	scaleSeed = 42
	scaleK    = 3
)

// scaleIters returns the per-arm sample count for one scale.
func scaleIters(scale int) int {
	switch {
	case scale >= 100:
		return 10
	case scale >= 10:
		return 20
	default:
		return 40
	}
}

// scaleArm is one solver's numbers at one world size.
type scaleArm struct {
	P50Ns       int64  `json:"p50_ns"`
	P99Ns       int64  `json:"p99_ns"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// scaleRow is one world size's full measurement.
type scaleRow struct {
	Scale     int      `json:"scale"`
	Sources   int      `json:"sources"`
	Edges     int      `json:"edges"`
	Terminals int      `json:"terminals"`
	Iters     int      `json:"iters"`
	Tiered    scaleArm `json:"tiered"`
	Exact     scaleArm `json:"exact"`
	// Agreement is the fraction of samples where the inline SPCSH top-1
	// named the same query as the refined exact top-1.
	Agreement float64 `json:"agreement"`
	// SpeedupP99 is exact-only p99 / tiered first-answer p99.
	SpeedupP99 float64 `json:"speedup_p99"`
}

// scaleReport is the result of the BENCH_9.json report.
type scaleReport struct {
	Seed int64      `json:"seed"`
	K    int        `json:"k"`
	Grid []int      `json:"grid"`
	Rows []scaleRow `json:"rows"`
}

// scaleWorldGraph generates the scaled world and loads every stitching
// chain into a catalog and source graph, the shape the scale scenario
// and the 1x SmartInt scenarios use.
func scaleWorldGraph(scale int) (*intlearn.Learner, []string, int, int) {
	cfg := webworld.ScaledConfig(scale)
	cfg.Seed = scaleSeed
	w := webworld.Generate(cfg)
	cat, g := scenario.LoadChains(w.Chains)

	// Terminals: every fragment of the first chain plus its stale mirror —
	// a 7-terminal stitch (the pasted values are visible in the decoy
	// too), where the Dreyfus–Wagner DP's exponential-in-terminals cost
	// bites while SPCSH stays near-linear.
	var terminals []string
	for _, rel := range w.Chains[0].Rels {
		terminals = append(terminals, rel.Name)
	}
	terminals = append(terminals, w.Chains[0].Decoy.Name)
	return intlearn.New(g), terminals, len(cat.All()), g.Len()
}

func top1Name(qs []*intlearn.Query) string {
	if len(qs) == 0 {
		return ""
	}
	return strings.Join(qs[0].Nodes, "+")
}

// timeSolves runs iters fresh-cache top-query searches on the learner
// and returns their first-answer latency and allocations. When refine
// is set (the tiered arm), each sample joins the background refinement
// after the timed window, and agreement is the fraction of samples
// whose inline top-1 named the refined top-1.
func timeSolves(lrn *intlearn.Learner, terminals []string, iters int, refine bool) (arm scaleArm, agreement float64, err error) {
	// Warmup solve outside the timed window: the first call on a fresh
	// learner pays the one-time compact-graph (CSR) index build, which is
	// amortized state in steady serving, not first-answer latency.
	ec0 := engine.NewExecCtx(context.Background(), engine.WithPlanCache(plancache.New(8)))
	if _, err := lrn.TopQueriesCtx(ec0, terminals, scaleK); err != nil {
		return arm, 0, err
	}
	lrn.WaitRefines()

	var lat []int64
	var msBefore, msAfter runtime.MemStats
	agree := 0
	for i := 0; i < iters; i++ {
		// A fresh plan cache per sample: every timed call is a cold memo
		// (the steady-state cache-hit path is measured by P1 instead).
		ec := engine.NewExecCtx(context.Background(), engine.WithPlanCache(plancache.New(8)))
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		qs, err := lrn.TopQueriesCtx(ec, terminals, scaleK)
		d := time.Since(start)
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			return arm, 0, err
		}
		lat = append(lat, d.Nanoseconds())
		arm.AllocsPerOp += msAfter.Mallocs - msBefore.Mallocs
		arm.BytesPerOp += msAfter.TotalAlloc - msBefore.TotalAlloc
		if refine {
			lrn.WaitRefines()
			rq, err := lrn.TopQueriesCtx(ec, terminals, scaleK)
			if err != nil {
				return arm, 0, err
			}
			if top1Name(rq) == top1Name(qs) {
				agree++
			}
		}
	}
	arm.P50Ns, arm.P99Ns = percentile(lat, 0.50), percentile(lat, 0.99)
	arm.AllocsPerOp /= uint64(iters)
	arm.BytesPerOp /= uint64(iters)
	return arm, float64(agree) / float64(iters), nil
}

// expScale runs the grid and prints/persists the report.
func expScale() error {
	grid, err := parseScaleGrid(scaleGridFlag)
	if err != nil {
		return err
	}
	report := scaleReport{Seed: scaleSeed, K: scaleK, Grid: grid}

	for _, scale := range grid {
		iters := scaleIters(scale)

		// Tiered arm: default thresholds; the chain worlds sit past the
		// inline-exact node bound, so every call answers from SPCSH and
		// refines in the background.
		lrn, terminals, nodes, edges := scaleWorldGraph(scale)
		row := scaleRow{Scale: scale, Sources: nodes, Edges: edges, Terminals: len(terminals), Iters: iters}
		if row.Tiered, row.Agreement, err = timeSolves(lrn, terminals, iters, true); err != nil {
			return fmt.Errorf("scale %dx tiered: %w", scale, err)
		}

		// Exact-only arm: force the inline exact solver (the pre-tiering
		// behavior) by lifting the tier thresholds.
		exact, terminals2, _, _ := scaleWorldGraph(scale)
		exact.MaxExactNodes = 1 << 30
		exact.TierTerminals = 1 << 30
		if row.Exact, _, err = timeSolves(exact, terminals2, iters, false); err != nil {
			return fmt.Errorf("scale %dx exact: %w", scale, err)
		}
		if row.Tiered.P99Ns > 0 {
			row.SpeedupP99 = float64(row.Exact.P99Ns) / float64(row.Tiered.P99Ns)
		}
		report.Rows = append(report.Rows, row)
	}

	rows := make([][]string, 0, len(report.Rows))
	for _, r := range report.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%dx", r.Scale), fmt.Sprint(r.Sources), fmt.Sprint(r.Edges),
			time.Duration(r.Tiered.P50Ns).String(), time.Duration(r.Tiered.P99Ns).String(),
			time.Duration(r.Exact.P50Ns).String(), time.Duration(r.Exact.P99Ns).String(),
			fmt.Sprint(r.Tiered.AllocsPerOp), fmt.Sprint(r.Exact.AllocsPerOp),
			f("%.2f", r.Agreement), f("%.1fx", r.SpeedupP99),
		})
	}
	printTable([]string{"scale", "sources", "edges", "tiered p50", "tiered p99",
		"exact p50", "exact p99", "tiered allocs", "exact allocs", "agree", "speedup"}, rows)

	gates := []gate{
		{"intlearn", "seed", sameAsBase, 0},
		{"intlearn", "k", sameAsBase, 0},
	}
	for _, scale := range grid {
		row := fmt.Sprintf("rows.scale=%d.", scale)
		gates = append(gates,
			gate{"sourcegraph", row + "sources", sameAsBase, 0},
			gate{"sourcegraph", row + "terminals", sameAsBase, 0},
			gate{"intlearn", row + "tiered.p99_ns", maxRatio, scaleP99Budget},
			gate{"intlearn", row + "agreement", baseSlack, 1e-9},
		)
		if floor := scaleSpeedupFloor(scale); floor > 0 {
			gates = append(gates, gate{"steiner", row + "speedup_p99", atLeast, floor})
		}
	}
	return finish("scale", report, gates)
}

func parseScaleGrid(s string) ([]int, error) {
	var grid []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("scale grid %q: bad entry %q", s, part)
		}
		grid = append(grid, v)
	}
	sort.Ints(grid)
	return grid, nil
}

// scaleP99Budget is the allowed tiered-p99 regression against the
// committed baseline: wall-clock latencies vary across machines, so the
// budget is generous; the within-run speedup gate below is the
// machine-independent invariant.
const scaleP99Budget = 2.0

// scaleSpeedupFloor is the within-run exact-p99/tiered-p99 ratio each
// world size must clear: the headline acceptance bar is ≥10x on the
// 100x world; the 10x world must still show a clear (≥3x) win.
func scaleSpeedupFloor(scale int) float64 {
	switch {
	case scale >= 100:
		return 10
	case scale >= 10:
		return 3
	default:
		return 0
	}
}
