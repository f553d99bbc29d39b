package workspace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"copycat/internal/obs"
	"copycat/internal/obs/flight"
)

// Clock returns the clock the workspace times its stages, spans, and
// service calls on: the one injected with SetClock, else its stream's
// (a hosted workspace without a clock of its own runs on the host's).
func (w *Workspace) Clock() obs.Clock {
	if w.clock != nil {
		return w.clock
	}
	return w.stream.Clock()
}

// SetClock injects the workspace clock. On a workspace that owns its
// stream (a standalone one) the clock drives the stream too — SLO
// windows and incident stamps — so a clock injected after New still
// governs everything; a hosted workspace's stream stays on the host
// clock.
func (w *Workspace) SetClock(c obs.Clock) {
	w.clock = c
	w.stream.SetClock(c)
}

func (w *Workspace) now() time.Time { return w.Clock().Now() }

// Stream returns the event stream the workspace publishes on, bound to
// the workspace's quality tracker and stage histograms (see
// obs.Stream.Bind). Before session.NewStandalone or a session host gave
// it one, it is a detached handle that feeds only those.
func (w *Workspace) Stream() *obs.Stream { return w.stream }

// SetStream points every publisher of the workspace — its stages and
// quality events, the decision log, the trace, the integration
// learner's background refines, and the resilience layer's breakers —
// at s. session.NewStandalone gives a workspace its own stream, a
// session host a handle on the host's, and nil detaches publishing (the
// overhead experiment's control arm): then only the workspace's own
// quality tracker and stage histograms are still fed. Call between
// refreshes, not during one.
func (w *Workspace) SetStream(s *obs.Stream) {
	w.stream = s.Bind(w.Quality, w.Metrics)
	w.Decisions.SetStream(s)
	w.trace.SetStream(s)
	w.Int.Stream = s
	w.Resilience.SetStream(s)
}

// Flight returns the flight recorder attached to the workspace's
// stream (the host's for a hosted workspace), or nil.
func (w *Workspace) Flight() *flight.Recorder { return flight.Attached(w.stream) }

// SLO reports the suggestion-refresh latency objective's status on the
// workspace's stream (the host-wide objective for a hosted workspace).
func (w *Workspace) SLO() obs.SLOStatus { return w.stream.SLO() }

// Refreshes counts the suggestion refreshes the workspace has run.
func (w *Workspace) Refreshes() int64 { return w.refreshes.Load() }

// EnableTracing starts recording spans for every pipeline stage into a
// fresh trace on the workspace clock. Until called, tracing is disabled
// and costs nothing beyond a nil check per stage. Ended spans are also
// published on the workspace stream, so an attached telemetry server
// streams them as they happen and the flight recorder's timeline holds
// them.
func (w *Workspace) EnableTracing() {
	w.trace = obs.NewTrace(w.Clock())
	w.trace.SetStream(w.stream)
}

// DisableTracing stops span recording (the trace collected so far is
// discarded).
func (w *Workspace) DisableTracing() { w.trace = nil }

// Tracing reports whether span recording is active.
func (w *Workspace) Tracing() bool { return w.trace != nil }

// Trace exposes the active trace (nil when tracing is disabled).
func (w *Workspace) Trace() *obs.Trace { return w.trace }

// TraceTo writes the collected spans as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. Safe (and empty) when
// tracing was never enabled.
func (w *Workspace) TraceTo(out io.Writer) error { return w.trace.WriteChrome(out) }

// stage opens one top-level pipeline stage: a root span on the session
// trace (when tracing is on). The returned done func ends it and
// publishes the stage completion on the stream, whose consumers fold it
// into the stage's latency histogram, the SLO windows, and the flight
// recorder's trigger rules.
func (w *Workspace) stage(name string) (*obs.Span, func()) {
	sp := w.trace.Start(name, "stage")
	if id := w.stream.Session(); id != "" {
		sp.SetAttr("session", id)
	}
	start := w.now()
	return sp, func() {
		d := w.now().Sub(start)
		w.stream.Publish(obs.Event{Kind: obs.KindStage, Name: name, Dur: d})
		sp.End()
	}
}

// Why returns the decision-log explanation lines for candidates whose
// name contains the given substring (case-insensitive) — why each was
// pruned, dropped, degraded, suggested, outranked, accepted, or
// rejected. An empty substring returns the whole log.
func (w *Workspace) Why(candidate string) []string {
	ds := w.Decisions.Decisions()
	if candidate != "" {
		ds = w.Decisions.For(candidate)
	}
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// MetricsSnapshot folds every observable surface into one obs.Snapshot:
// the latency histograms and gauges of the registry, the engine's
// execution counters (prefixed "engine."), and the service-cache
// health gauges — cache.entries and cache.hit_rate, the fraction of
// dependent-join lookups answered without a live service call.
func (w *Workspace) MetricsSnapshot() obs.Snapshot {
	snap := w.Metrics.Snapshot()
	es := w.ExecStats.Snapshot()
	snap.Counters["engine.rows_in"] = es.RowsIn
	snap.Counters["engine.rows_out"] = es.RowsOut
	snap.Counters["engine.service_calls"] = es.ServiceCalls
	snap.Counters["engine.service_cache_hits"] = es.ServiceCacheHits
	snap.Counters["engine.trees_pruned"] = es.TreesPruned
	snap.Counters["engine.plans_executed"] = es.PlansExecuted
	snap.Counters["engine.candidates_run"] = es.CandidatesRun
	snap.Counters["engine.plans_reused"] = es.PlansReused
	snap.Counters["engine.plans_invalidated"] = es.PlansInvalidated
	snap.Counters["engine.retries"] = es.Retries
	snap.Counters["engine.breaker_trips"] = es.BreakerTrips
	snap.Counters["engine.degraded_rows"] = es.DegradedRows
	snap.Counters["spans.dropped"] = w.stream.Dropped()
	if w.SvcCache != nil {
		snap.Gauges["cache.entries"] = float64(w.SvcCache.Len())
	}
	if total := es.ServiceCacheHits + es.ServiceCalls; total > 0 {
		snap.Gauges["cache.hit_rate"] = float64(es.ServiceCacheHits) / float64(total)
	}
	if w.PlanCache != nil {
		snap.Gauges["plancache.entries"] = float64(w.PlanCache.Len())
		snap.Gauges["plancache.hit_rate"] = w.PlanCache.HitRate()
	}
	w.Quality.Snapshot().Fold(snap)
	return snap
}

// CacheInfo renders the plan-result cache's state for the REPL's :cache
// command: occupancy, lifetime hit/miss/eviction counts, and the
// engine's reuse/invalidation counters.
func (w *Workspace) CacheInfo() string {
	var b strings.Builder
	if w.PlanCache == nil {
		b.WriteString("plan cache: disabled (cold refresh)\n")
	} else {
		hits, misses, evictions := w.PlanCache.Stats()
		fmt.Fprintf(&b, "plan cache: %d/%d entries\n", w.PlanCache.Len(), w.PlanCache.Cap())
		fmt.Fprintf(&b, "  hits/misses/evictions  %d/%d/%d\n", hits, misses, evictions)
		fmt.Fprintf(&b, "  hit rate               %.4f\n", w.PlanCache.HitRate())
	}
	es := w.ExecStats.Snapshot()
	fmt.Fprintf(&b, "  plans reused           %d\n", es.PlansReused)
	fmt.Fprintf(&b, "  plans invalidated      %d\n", es.PlansInvalidated)
	fmt.Fprintf(&b, "service cache: %d entries, hit rate %.4f\n",
		w.SvcCache.Len(), svcHitRate(es.ServiceCacheHits, es.ServiceCalls))
	return b.String()
}

func svcHitRate(hits, calls int64) float64 {
	if hits+calls == 0 {
		return 0
	}
	return float64(hits) / float64(hits+calls)
}

// RenderSLO renders the SLO tracker's status as an aligned
// human-readable report (the REPL's :slo command).
func RenderSLO(st obs.SLOStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective: %.2f%% of %s under %s\n",
		100*st.Target, st.Stage, time.Duration(st.ThresholdNs))
	window := func(label string, winNs, count int64, errRate, burn float64, alert bool, thresh float64) {
		state := "ok"
		if alert {
			state = "ALERT"
		}
		fmt.Fprintf(&b, "  %-4s %-8s n=%-6d err=%-8.4f burn=%-8.2f (alert at %.1f: %s)\n",
			label, time.Duration(winNs), count, errRate, burn, thresh, state)
	}
	window("fast", st.FastWindowNs, st.FastCount, st.FastErrRate, st.FastBurn, st.FastAlert, st.FastBurnThreshold)
	window("slow", st.SlowWindowNs, st.SlowCount, st.SlowErrRate, st.SlowBurn, st.SlowAlert, st.SlowBurnThreshold)
	fmt.Fprintf(&b, "  windowed p99           %s\n", time.Duration(st.FastP99Ns))
	return b.String()
}

// RenderMetrics renders the snapshot as an aligned human-readable
// report (the REPL's :metrics command).
func RenderMetrics(snap obs.Snapshot) string {
	var b strings.Builder
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %d\n", n, snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %.3f\n", n, snap.Gauges[n])
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		fmt.Fprintf(&b, "%-32s n=%-6d p50=%-10s p95=%-10s p99=%s\n",
			n, h.Count, h.P50(), h.P95(), h.P99())
	}
	return b.String()
}
