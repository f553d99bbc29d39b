package obs

import (
	"fmt"
	"time"
)

// The latency objective. The repo's benchmarks justify it: BENCH_4
// puts the exact warm suggestion-refresh p99 at 1–2ms on a 2-CPU box,
// well under 25ms, so at least 99% of refreshes should finish within
// 25ms. It is judged over
// rolling windows rather than since-boot counts, with the Google-SRE
// 5m/1h burn windows: the fast alert fires at 14.4x burn (a 30-day
// budget gone in ~2 days), the slow one at 6x.
const (
	// SLOStage is the pipeline stage the objective covers.
	SLOStage = "suggest.refresh"
	// SLOThreshold is the per-execution latency objective; a slower
	// execution spends error budget.
	SLOThreshold = 25 * time.Millisecond
	// SLOTarget is the fraction of executions that must meet the
	// threshold; the error budget is 1 - SLOTarget.
	SLOTarget = 0.99

	sloFastWindow = 5 * time.Minute
	sloSlowWindow = time.Hour
	sloFastBurn   = 14.4
	sloSlowBurn   = 6
	sloSlots      = 15 // sub-windows per rolling window
)

// SLOTracker tracks the latency objective over a fast and a slow
// rolling window and computes burn rates from them. Time is passed in
// by the caller (the event stream, on its clock). Safe for concurrent
// use; a nil *SLOTracker is inert.
type SLOTracker struct {
	fast *WindowHistogram
	slow *WindowHistogram
}

// NewSLOTracker builds a tracker for the objective.
func NewSLOTracker() *SLOTracker {
	bounds := DefaultLatencyBuckets()
	return &SLOTracker{
		fast: NewWindowHistogram(bounds, sloFastWindow, sloSlots),
		slow: NewWindowHistogram(bounds, sloSlowWindow, sloSlots),
	}
}

// Observe records one execution of the tracked stage, finished at now,
// into both burn windows.
func (t *SLOTracker) Observe(now time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.fast.Observe(now, d)
	t.slow.Observe(now, d)
}

// SLOStatus is a point-in-time report of the objective: windowed
// error rates, burn rates, alert states, and the fast window's p99.
type SLOStatus struct {
	Stage       string  `json:"stage"`
	ThresholdNs int64   `json:"threshold_ns"`
	Target      float64 `json:"target"`

	FastWindowNs      int64   `json:"fast_window_ns"`
	FastCount         int64   `json:"fast_count"`
	FastErrRate       float64 `json:"fast_err_rate"`
	FastBurn          float64 `json:"fast_burn"`
	FastBurnThreshold float64 `json:"fast_burn_threshold"`
	FastAlert         bool    `json:"fast_alert"`

	SlowWindowNs      int64   `json:"slow_window_ns"`
	SlowCount         int64   `json:"slow_count"`
	SlowErrRate       float64 `json:"slow_err_rate"`
	SlowBurn          float64 `json:"slow_burn"`
	SlowBurnThreshold float64 `json:"slow_burn_threshold"`
	SlowAlert         bool    `json:"slow_alert"`

	// FastP99Ns is the tracked stage's p99 over the fast window — the
	// "right now" counterpart of the cumulative registry histogram.
	FastP99Ns int64 `json:"fast_p99_ns"`
}

// String renders the status as one summary line.
func (s SLOStatus) String() string {
	state := "ok"
	if s.SlowAlert {
		state = "slow-burn alert"
	}
	if s.FastAlert {
		state = "fast-burn alert"
	}
	return fmt.Sprintf("slo %s: p99(%s)=%s target %.2f%% < %s — burn fast %.2f / slow %.2f (%s)",
		s.Stage, time.Duration(s.FastWindowNs), time.Duration(s.FastP99Ns),
		100*s.Target, time.Duration(s.ThresholdNs), s.FastBurn, s.SlowBurn, state)
}

// Status computes the burn rates as of now. Burn rate is the windowed
// error rate divided by the error budget (1 - SLOTarget): burn 1.0
// spends budget exactly as fast as the objective allows, 14.4 exhausts
// a 30-day budget in ~2 days. An empty window reports zero burn (no
// traffic is not an outage).
func (t *SLOTracker) Status(now time.Time) SLOStatus {
	if t == nil {
		return SLOStatus{}
	}
	budget := 1 - SLOTarget
	st := SLOStatus{
		Stage:             SLOStage,
		ThresholdNs:       SLOThreshold.Nanoseconds(),
		Target:            SLOTarget,
		FastWindowNs:      t.fast.Window().Nanoseconds(),
		SlowWindowNs:      t.slow.Window().Nanoseconds(),
		FastBurnThreshold: sloFastBurn,
		SlowBurnThreshold: sloSlowBurn,
		FastP99Ns:         t.fast.Quantile(now, 0.99).Nanoseconds(),
	}
	above, total := t.fast.AboveThreshold(now, SLOThreshold)
	st.FastCount = total
	if total > 0 {
		st.FastErrRate = float64(above) / float64(total)
		st.FastBurn = st.FastErrRate / budget
	}
	above, total = t.slow.AboveThreshold(now, SLOThreshold)
	st.SlowCount = total
	if total > 0 {
		st.SlowErrRate = float64(above) / float64(total)
		st.SlowBurn = st.SlowErrRate / budget
	}
	st.FastAlert = st.FastBurn >= sloFastBurn
	st.SlowAlert = st.SlowBurn >= sloSlowBurn
	return st
}
