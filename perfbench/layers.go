package main

import "strings"

// Counter keys the workloads accumulate into tracer.counts; the
// per-layer report reads them back here.
const (
	cRowsIn          = "engine.rows_in"
	cRowsOut         = "engine.rows_out"
	cSvcCalls        = "engine.service_calls"
	cSvcHits         = "engine.service_cache_hits"
	cTreesPruned     = "engine.trees_pruned"
	cCandidatesRun   = "engine.candidates_run"
	cPlansReused     = "engine.plans_reused"
	cPlansInvalid    = "engine.plans_invalidated"
	cTierExact       = "solver.tier.exact"
	cTierTiered      = "solver.tier.tiered"
	cTierHeuristic   = "solver.tier.heuristic"
	cRefineCompleted = "solver.refine.completed"
	cRefineFailed    = "solver.refine.failed"
	cTop1Agree       = "intlearn.top1_agree"
	cTop1Total       = "intlearn.top1_total"
	cReloads         = "session.reloads"
	cEvictions       = "session.evictions"
	cResidentSum     = "session.resident_sum"
	cResidentN       = "session.resident_n"
)

// spanSet is the analysed span list of one traced run.
type spanSet struct {
	spans    []span
	children map[int64][]int
}

func newSpanSet(spans []span) *spanSet {
	return &spanSet{spans: spans, children: computeSelf(spans)}
}

// durs returns the durations in ms of the spans match selects.
func (s *spanSet) durs(match func(*span) bool) []float64 {
	var out []float64
	for i := range s.spans {
		if match(&s.spans[i]) {
			out = append(out, float64(s.spans[i].dur())/1e6)
		}
	}
	return out
}

// selfs returns the layer self times in ms of the spans match selects.
func (s *spanSet) selfs(match func(*span) bool) []float64 {
	var out []float64
	for i := range s.spans {
		if match(&s.spans[i]) {
			out = append(out, float64(layerSelf(s.spans, s.children, i))/1e6)
		}
	}
	return out
}

func named(name string) func(*span) bool {
	return func(sp *span) bool { return sp.Name == name }
}

func namedRole(name, role string) func(*span) bool {
	return func(sp *span) bool { return sp.Name == name && sp.Role == role }
}

func candidateIn(layer string) func(*span) bool {
	return func(sp *span) bool {
		return sp.Layer == layer && strings.HasPrefix(sp.Name, "execute.candidate:")
	}
}

func prefixed(p string) func(*span) bool {
	return func(sp *span) bool { return strings.HasPrefix(sp.Name, p) }
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes the span- and counter-derived per-layer metrics
// of a traced run over ops traced ops. Metrics a workload reads once at
// the end (gauges) and the runtime and overhead figures are added by the
// caller.
func layerMetrics(set *spanSet, c map[string]float64, ops int) map[string]float64 {
	n := float64(ops)
	perOp := func(v float64) float64 { return ratio(v, n) }
	m := map[string]float64{}

	link := set.durs(candidateIn("linkage"))
	m["linkage.candidate.ms_per_op"] = perOp(sum(link))
	m["linkage.candidates_per_op"] = perOp(float64(len(link)))
	m["engine.candidate.ms_per_op"] = perOp(sum(set.durs(candidateIn("engine"))))
	m["engine.candidates_run_per_op"] = perOp(c[cCandidatesRun])
	m["engine.rows_in_per_op"] = perOp(c[cRowsIn])
	m["engine.rows_out_per_op"] = perOp(c[cRowsOut])
	m["engine.svc.calls_per_op"] = perOp(c[cSvcCalls])
	m["engine.svc.hit_ratio"] = ratio(c[cSvcHits], c[cSvcHits]+c[cSvcCalls])
	m["engine.svc.ms_per_op"] = perOp(sum(set.durs(prefixed("svc.call:"))))
	executes := set.durs(named(callExecute))
	m["engine.query.ms"] = ratio(sum(set.durs(named(callCompile)))+sum(executes), float64(len(executes)))

	gen := set.durs(named("learn.generalize"))
	m["structlearn.generalize.ms_per_op"] = perOp(sum(gen))
	m["structlearn.generalize.calls_per_op"] = perOp(float64(len(gen)))
	m["modellearn.type.ms_per_op"] = perOp(sum(set.durs(named("learn.type"))))
	disc := set.durs(named("sourcegraph.discover"))
	m["sourcegraph.discover.ms_per_op"] = perOp(sum(disc))
	m["sourcegraph.discover.calls_per_op"] = perOp(float64(len(disc)))

	m["plancache.reuse_ratio"] = ratio(c[cPlansReused], c[cPlansReused]+c[cCandidatesRun])
	m["plancache.invalidated_per_op"] = perOp(c[cPlansInvalid])

	mira := set.durs(func(sp *span) bool { return sp.Kind == kindCall && sp.Layer == "mira" })
	m["mira.update.ms"] = mean(mira)
	m["mira.update.calls_per_op"] = perOp(float64(len(mira)))

	m["intlearn.search.ms"] = mean(set.durs(namedRole(callTopQueries, roleFirst)))
	m["intlearn.tier.exact_per_op"] = perOp(c[cTierExact])
	m["intlearn.tier.tiered_per_op"] = perOp(c[cTierTiered])
	m["intlearn.tier.heuristic_per_op"] = perOp(c[cTierHeuristic])
	m["steiner.trees_pruned_per_op"] = perOp(c[cTreesPruned])
	m["intlearn.refine_wait.ms"] = mean(set.durs(namedRole(callWaitRefines, roleExact)))
	m["intlearn.refine.completed_per_op"] = perOp(c[cRefineCompleted])
	m["intlearn.refine.failed_per_op"] = perOp(c[cRefineFailed])
	m["intlearn.top1_agreement"] = ratio(c[cTop1Agree], c[cTop1Total])

	m["session.build.ms"] = mean(set.durs(named(callFactory)))
	m["session.attach.resident_ms_p50"] = median(set.durs(namedRole(callAcquire, roleResident)))
	m["session.attach.reload_ms_p50"] = median(set.durs(namedRole(callAcquire, roleReload)))
	m["session.reloads_per_op"] = perOp(c[cReloads])
	m["session.evictions_per_op"] = perOp(c[cEvictions])
	m["session.resident_mean"] = ratio(c[cResidentSum], c[cResidentN])

	m["workspace.paste.self_ms"] = mean(set.selfs(named(callPaste)))
	m["workspace.commit.self_ms"] = mean(set.selfs(named(callAcceptRows)))
	m["workspace.suggest.self_ms"] = mean(set.selfs(namedRole(callRefresh, roleSuggest)))

	var rootSelf, rootDur float64
	for i := range set.spans {
		if sp := &set.spans[i]; sp.Kind == kindOp {
			rootSelf += float64(sp.Self)
			rootDur += float64(sp.dur())
		}
	}
	m["trace.unaccounted_frac"] = ratio(rootSelf, rootDur)
	return m
}
