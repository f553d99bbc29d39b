package main

// metricDef names one reported metric with its unit and which
// direction is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// latencyDef is one end-to-end latency: the sample key the workloads
// record under, the workloads that produce it, and whether its p90 is
// part of the report.
type latencyDef struct {
	key       string
	workloads []string
	p90       bool
}

// latencies are the end-to-end latencies, each reported as
// <key>_ms_p50 (and <key>_ms_p90 where p90 is set).
var latencies = []latencyDef{
	{"paste", []string{wInteractive}, true},
	{"commit", []string{wInteractive}, false},
	{"suggest", []string{wInteractive, wChurn}, true},
	{"rerank", []string{wInteractive, wScale, wChurn}, true},
	{"query_first", []string{wScale}, true},
	{"query_exact", []string{wScale}, false},
	{"attach", []string{wChurn}, true},
}

// endToEnd is the full end-to-end catalog, in report order.
var endToEnd = func() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower"},
		{"error_rate", "ratio", "lower"},
		{"ops_per_s", "1/s", "higher"},
		{"cpu_ms_per_op", "ms", "lower"},
		{"ref_cpu_ms_per_op", "ms", "lower"},
		{"live_heap_mb", "MB", "lower"},
	}
	for _, l := range latencies {
		defs = append(defs, metricDef{l.key + "_ms_p50", "ms", "lower"})
		if l.p90 {
			defs = append(defs, metricDef{l.key + "_ms_p90", "ms", "lower"})
		}
	}
	return defs
}()

// gated are the end-to-end metrics of an untraced run's result line and
// of BENCHMARK.json's end_to_end list. Each is non-zero on every
// workload and counts the program's work in CPU time at the reference
// speed (setup_s, ref_cpu_ms_per_op; see calibrate) or in memory, not in
// wall time: the benchmark shares a few vCPUs with other guests, and on
// a 2-vCPU VM two busy loops beside it halved ops_per_s, while periods of
// busy neighbours on the host made every instruction 2.2–2.7 times
// slower, CPU time included. The wall-time metrics, ops_per_s and the
// latencies, and the raw cpu_ms_per_op are in the text and JSON reports.
var gated = []string{"setup_s", "ref_cpu_ms_per_op", "live_heap_mb"}

// perLayer is the per-layer catalog a traced run reports, in report
// order. Every workload reports every metric; a layer that does no work
// on a workload reads 0 there.
var perLayer = []metricDef{
	{"linkage.candidate.ms_per_op", "ms/op", "lower"},
	{"linkage.candidates_per_op", "count/op", "lower"},
	{"engine.candidate.ms_per_op", "ms/op", "lower"},
	{"engine.candidates_run_per_op", "count/op", "lower"},
	{"engine.rows_in_per_op", "count/op", "lower"},
	{"engine.rows_out_per_op", "count/op", "lower"},
	{"engine.svc.calls_per_op", "count/op", "lower"},
	{"engine.svc.hit_ratio", "ratio", "higher"},
	{"engine.svc.ms_per_op", "ms/op", "lower"},
	{"engine.query.ms", "ms", "lower"},
	{"structlearn.generalize.ms_per_op", "ms/op", "lower"},
	{"structlearn.generalize.calls_per_op", "count/op", "lower"},
	{"modellearn.type.ms_per_op", "ms/op", "lower"},
	{"sourcegraph.discover.ms_per_op", "ms/op", "lower"},
	{"sourcegraph.discover.calls_per_op", "count/op", "lower"},
	{"plancache.reuse_ratio", "ratio", "higher"},
	{"plancache.invalidated_per_op", "count/op", "lower"},
	{"mira.update.ms", "ms", "lower"},
	{"mira.update.calls_per_op", "count/op", "lower"},
	{"intlearn.search.ms", "ms", "lower"},
	{"intlearn.tier.exact_per_op", "count/op", "lower"},
	{"intlearn.tier.tiered_per_op", "count/op", "lower"},
	{"intlearn.tier.heuristic_per_op", "count/op", "lower"},
	{"steiner.trees_pruned_per_op", "count/op", "higher"},
	{"intlearn.refine_wait.ms", "ms", "lower"},
	{"intlearn.refine.completed_per_op", "count/op", "higher"},
	{"intlearn.refine.failed_per_op", "count/op", "lower"},
	{"intlearn.top1_agreement", "ratio", "higher"},
	{"session.build.ms", "ms", "lower"},
	{"session.attach.resident_ms_p50", "ms", "lower"},
	{"session.attach.reload_ms_p50", "ms", "lower"},
	{"session.reloads_per_op", "count/op", "lower"},
	{"session.evictions_per_op", "count/op", "lower"},
	{"session.resident_mean", "count", "higher"},
	{"session.shed", "count", "lower"},
	{"persist.snapshot_kb", "KB", "lower"},
	{"persist.compression_ratio", "ratio", "higher"},
	{"workspace.paste.self_ms", "ms", "lower"},
	{"workspace.commit.self_ms", "ms", "lower"},
	{"workspace.suggest.self_ms", "ms", "lower"},
	{"workspace.mistyped_pairs", "count", "lower"},
	{"runtime.allocs_per_op", "count/op", "lower"},
	{"runtime.alloc_kb_per_op", "KB/op", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unaccounted_frac", "ratio", "lower"},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
