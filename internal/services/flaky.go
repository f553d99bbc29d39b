package services

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"copycat/internal/engine"
	"copycat/internal/obs"
	"copycat/internal/resilience"
	"copycat/internal/table"
)

// FaultConfig tunes a FlakyService wrapper. All randomness is derived by
// hashing (Seed, service name, input key, attempt), so the same
// configuration produces the same fault pattern regardless of call order
// — the parallel candidate executor sees the same faults as a serial run.
type FaultConfig struct {
	// Seed selects the fault pattern.
	Seed int64
	// TransientRate is the probability in [0,1] that a call fails with a
	// transient error. Retries of the same inputs draw fresh values, so a
	// retry can succeed.
	TransientRate float64
	// BaseLatency is added to every call on the Clock.
	BaseLatency time.Duration
	// LatencySpikeRate is the probability of a slow call, which takes
	// LatencySpike instead of BaseLatency.
	LatencySpikeRate float64
	LatencySpike     time.Duration
	// Outage, when set, fails every call transiently — a hard outage that
	// drives circuit breakers open.
	Outage bool
	// Clock receives the injected latency (Sleep). Nil disables latency
	// injection entirely; no wall-clock sleeps ever happen.
	Clock obs.Clock
}

// FlakyService wraps an engine.Service with deterministic fault
// injection: seeded transient-error and latency-spike rates plus hard
// outages. It exists so resilience behavior can be tested and measured
// (the scpbench faults experiment) without nondeterministic flakiness.
// Safe for concurrent use.
type FlakyService struct {
	inner engine.Service
	cfg   FaultConfig

	mu       sync.Mutex
	attempts map[string]int // input key -> call count, for fresh per-retry draws
	calls    int64
	faults   int64
}

// NewFlakyService wraps a service with the given fault configuration.
func NewFlakyService(inner engine.Service, cfg FaultConfig) *FlakyService {
	return &FlakyService{inner: inner, cfg: cfg, attempts: map[string]int{}}
}

// Name implements engine.Service, delegating to the wrapped service.
func (f *FlakyService) Name() string { return f.inner.Name() }

// InputSchema implements engine.Service.
func (f *FlakyService) InputSchema() table.Schema { return f.inner.InputSchema() }

// OutputSchema implements engine.Service.
func (f *FlakyService) OutputSchema() table.Schema { return f.inner.OutputSchema() }

// unit derives a uniform value in [0,1) from the fault seed, the service
// name, the input key, the per-key attempt number, and a salt that keeps
// the latency and error draws independent.
func (f *FlakyService) unit(key string, attempt int, salt string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%s", f.cfg.Seed, f.inner.Name(), key, attempt, salt)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Call implements engine.Service: injects latency and faults per the
// config, then delegates to the wrapped service.
func (f *FlakyService) Call(in table.Tuple) ([]table.Tuple, error) {
	key := in.Key()
	f.mu.Lock()
	f.attempts[key]++
	attempt := f.attempts[key]
	f.calls++
	f.mu.Unlock()

	if f.cfg.Clock != nil {
		lat := f.cfg.BaseLatency
		if f.cfg.LatencySpikeRate > 0 && f.unit(key, attempt, "lat") < f.cfg.LatencySpikeRate {
			lat = f.cfg.LatencySpike
		}
		if lat > 0 {
			f.cfg.Clock.Sleep(lat)
		}
	}
	if f.cfg.Outage {
		f.fault()
		return nil, resilience.MarkTransient(fmt.Errorf("services: %s: injected outage", f.inner.Name()))
	}
	if f.cfg.TransientRate > 0 && f.unit(key, attempt, "err") < f.cfg.TransientRate {
		f.fault()
		return nil, resilience.MarkTransient(fmt.Errorf("services: %s: injected transient failure", f.inner.Name()))
	}
	return f.inner.Call(in)
}

func (f *FlakyService) fault() {
	f.mu.Lock()
	f.faults++
	f.mu.Unlock()
}

// Calls counts total invocations (including faulted ones).
func (f *FlakyService) Calls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Faults counts injected failures.
func (f *FlakyService) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// WrapFlaky wraps every service in the slice with the same fault config.
func WrapFlaky(svcs []engine.Service, cfg FaultConfig) []engine.Service {
	out := make([]engine.Service, len(svcs))
	for i, s := range svcs {
		out[i] = NewFlakyService(s, cfg)
	}
	return out
}
