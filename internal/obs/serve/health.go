package serve

import (
	"fmt"

	"copycat/internal/obs"
	"copycat/internal/resilience"
)

// Health states, ordered by severity. "degraded" still serves traffic
// (HTTP 200 with the state in the body); "unhealthy" answers 503 so a
// load balancer or orchestrator stops routing to the instance.
const (
	StatusOK        = "ok"
	StatusDegraded  = "degraded"
	StatusUnhealthy = "unhealthy"
)

// DegradedRowRateMax is the tolerated fraction of degraded rows
// (engine.degraded_rows / engine.rows_out) before the instance reports
// degraded.
const DegradedRowRateMax = 0.05

// Health is the /healthz response body.
type Health struct {
	Status          string                     `json:"status"`
	Reasons         []string                   `json:"reasons,omitempty"`
	Breakers        []resilience.BreakerStatus `json:"breakers,omitempty"`
	DegradedRowRate float64                    `json:"degraded_row_rate"`
	SLO             *obs.SLOStatus             `json:"slo,omitempty"`
}

// EvaluateHealth folds breaker states, the degraded-row rate, and the
// SLO burn alerts into one verdict:
//
//   - unhealthy: any breaker open (a dependency is failing hard enough
//     that calls are being rejected outright), or the SLO fast-burn
//     alert is firing (the latency objective's budget is being spent
//     at page-worthy speed);
//   - degraded: a breaker half-open (probing recovery), the SLO
//     slow-burn alert, or the degraded-row rate above threshold;
//   - ok otherwise.
func EvaluateHealth(snap obs.Snapshot, breakers []resilience.BreakerStatus, slo *obs.SLOStatus) Health {
	h := Health{Status: StatusOK, Breakers: breakers, SLO: slo}

	degrade := func(reason string) {
		if h.Status == StatusOK {
			h.Status = StatusDegraded
		}
		h.Reasons = append(h.Reasons, reason)
	}
	fail := func(reason string) {
		h.Status = StatusUnhealthy
		h.Reasons = append(h.Reasons, reason)
	}

	for _, b := range breakers {
		switch b.State {
		case resilience.BreakerOpen:
			fail("breaker open: " + b.Service)
		case resilience.BreakerHalfOpen:
			degrade("breaker half-open: " + b.Service)
		}
	}

	if out := snap.Counters["engine.rows_out"]; out > 0 {
		h.DegradedRowRate = float64(snap.Counters["engine.degraded_rows"]) / float64(out)
		if h.DegradedRowRate > DegradedRowRateMax {
			degrade(fmt.Sprintf("degraded-row rate %.1f%% above %.1f%%",
				100*h.DegradedRowRate, 100*DegradedRowRateMax))
		}
	}

	if slo != nil {
		if slo.FastAlert {
			fail(fmt.Sprintf("slo fast-burn alert: %s burning %.1fx budget over %s",
				slo.Stage, slo.FastBurn, durationNs(slo.FastWindowNs)))
		} else if slo.SlowAlert {
			degrade(fmt.Sprintf("slo slow-burn alert: %s burning %.1fx budget over %s",
				slo.Stage, slo.SlowBurn, durationNs(slo.SlowWindowNs)))
		}
	}
	return h
}
