// Package resilience hardens CopyCat's service-call path against the
// realities of live web services (§4's Google geocoding and Yahoo address
// resolution): transient failures, latency spikes, and outages. It
// provides an error taxonomy (transient vs permanent, checked with
// errors.Is), retry with exponential backoff and deterministic seeded
// jitter, per-call latency budgets, and a per-service circuit breaker —
// the substrate the engine's dependent joins use to degrade gracefully
// instead of aborting a whole plan on the first flaky lookup.
//
// Everything is clock-driven: injected latency and breaker cooldowns run
// on a Clock, and tests use VirtualClock so the entire layer is
// deterministic with no wall-clock sleeps.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"copycat/internal/obs"
)

// ---------------------------------------------------------------- error taxonomy

// ErrTransient marks failures worth retrying: the service may answer the
// same inputs on another attempt (timeouts, dropped connections, 5xx-like
// conditions). Check with errors.Is(err, ErrTransient) or Transient(err).
var ErrTransient = errors.New("transient service failure")

// ErrPermanent marks failures retrying cannot fix: the inputs themselves
// are unacceptable, or the service rejected the request semantically.
var ErrPermanent = errors.New("permanent service failure")

// ErrTimeout classifies a call whose observed latency exceeded the
// policy's per-call budget. It is transient: a retry may be fast.
var ErrTimeout = fmt.Errorf("service call timed out: %w", ErrTransient)

// ErrBreakerOpen is returned without invoking the service while its
// circuit breaker is open. It is transient: the breaker will probe again
// after the cooldown.
var ErrBreakerOpen = fmt.Errorf("circuit breaker open: %w", ErrTransient)

// classified wraps an underlying error with a taxonomy sentinel so both
// survive errors.Is.
type classified struct {
	err   error
	class error
}

func (c *classified) Error() string   { return c.err.Error() }
func (c *classified) Unwrap() []error { return []error{c.err, c.class} }

// MarkTransient tags an error as transient. nil stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ErrTransient}
}

// MarkPermanent tags an error as permanent. nil stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ErrPermanent}
}

// Transient reports whether an error is classified transient.
func Transient(err error) bool { return errors.Is(err, ErrTransient) }

// Permanent reports whether an error is explicitly classified permanent.
// Unclassified errors are treated as permanent by the retry loop (they
// signal bad inputs, not a bad service), but Permanent returns false for
// them so callers can distinguish the three cases.
func Permanent(err error) bool { return errors.Is(err, ErrPermanent) }

// ---------------------------------------------------------------- policy

// Policy configures the retry loop around one service call.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// JitterFrac spreads each backoff by ±JitterFrac of its value, drawn
	// from the seeded jitter stream — deterministic, unlike crypto/time
	// jitter, so tests and experiments replay exactly.
	JitterFrac float64
	// Timeout is the per-call latency budget measured on the Clock: a
	// call whose observed duration exceeds it is classified ErrTimeout
	// (transient) even if it returned data. 0 disables the budget.
	Timeout time.Duration
	// Seed seeds the jitter stream.
	Seed int64
	// Clock drives backoff sleeps and latency measurement. Defaults to
	// the system clock; tests install a VirtualClock.
	Clock obs.Clock
}

// DefaultPolicy is the standard service-call policy: three attempts,
// 25ms→2× backoff with ±20% jitter, and a 2s per-call budget.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts: 3,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		JitterFrac:  0.2,
		Timeout:     2 * time.Second,
		Seed:        1,
	}
}

// withDefaults fills zero fields from DefaultPolicy.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Clock == nil {
		p.Clock = obs.SystemClock{}
	}
	return p
}

// ---------------------------------------------------------------- caller

// Outcome reports what one resilient call cost.
type Outcome struct {
	// Attempts is how many times the service was actually invoked.
	Attempts int
	// Retries is Attempts beyond the first.
	Retries int
	// Tripped reports whether this call drove a breaker open.
	Tripped bool
}

// Caller executes service calls under a retry policy with one circuit
// breaker per service name. Safe for concurrent use; the suggestion
// pipeline's parallel candidate executor shares one Caller.
type Caller struct {
	policy Policy
	bcfg   BreakerConfig

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*Breaker
	// stream receives every breaker's state transitions (existing and
	// future breakers alike).
	stream *obs.Stream
}

// NewCaller builds a caller from a policy and breaker config; zero
// fields take defaults.
func NewCaller(p Policy, bc BreakerConfig) *Caller {
	p = p.withDefaults()
	return &Caller{
		policy:   p,
		bcfg:     bc.withDefaults(),
		rng:      rand.New(rand.NewSource(p.Seed)),
		breakers: map[string]*Breaker{},
	}
}

// Breaker returns the named service's breaker, creating it on first use.
func (c *Caller) Breaker(service string) *Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[service]
	if !ok {
		b = NewBreaker(c.bcfg, c.policy.Clock)
		b.service, b.stream = service, c.stream
		c.breakers[service] = b
	}
	return b
}

// SetStream points every breaker this caller owns, existing and future,
// at s: each state transition is published there as a lifecycle event
// (a flight-recorder trigger when a breaker opens). nil stops
// publishing.
func (c *Caller) SetStream(s *obs.Stream) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stream = s
	for _, b := range c.breakers {
		b.mu.Lock()
		b.stream = s
		b.mu.Unlock()
	}
}

// BreakerStatus is a point-in-time report of one service's breaker,
// the shape the telemetry server's /metrics and /healthz export.
type BreakerStatus struct {
	Service string       `json:"service"`
	State   BreakerState `json:"-"`
	// StateName is State rendered ("closed", "open", "half-open") so the
	// JSON surface is self-describing.
	StateName string `json:"state"`
	Trips     int64  `json:"trips"`
}

// Status snapshots every breaker the caller has created, sorted by
// service name. Services never called have no breaker and do not
// appear.
func (c *Caller) Status() []BreakerStatus {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	names := make([]string, 0, len(c.breakers))
	for name := range c.breakers {
		names = append(names, name)
	}
	breakers := make([]*Breaker, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		breakers = append(breakers, c.breakers[name])
	}
	c.mu.Unlock()
	// Read each breaker outside the caller lock: Breaker has its own
	// mutex and Allow may be mid-flight on another goroutine.
	out := make([]BreakerStatus, len(names))
	for i, b := range breakers {
		st := b.State()
		out[i] = BreakerStatus{Service: names[i], State: st, StateName: st.String(), Trips: b.Trips()}
	}
	return out
}

// CountOpen reports how many of the given breakers are open. Paired
// with MajorityOpen it is the shared overload signal: the telemetry
// server's readiness probe and the session host's admission control
// both treat a majority-open breaker set as "the backend services are
// down, stop taking work".
func CountOpen(bs []BreakerStatus) int {
	open := 0
	for _, b := range bs {
		if b.State == BreakerOpen {
			open++
		}
	}
	return open
}

// MajorityOpen reports whether more than half of the breakers are open
// (false for an empty set: no services called means no evidence of
// overload).
func MajorityOpen(bs []BreakerStatus) bool {
	return len(bs) > 0 && CountOpen(bs)*2 > len(bs)
}

// backoff computes the jittered delay before retry number attempt
// (0-based). Jitter draws from the seeded stream under the mutex.
func (c *Caller) backoff(attempt int) time.Duration {
	d := float64(c.policy.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= c.policy.Multiplier
	}
	if max := float64(c.policy.MaxDelay); d > max {
		d = max
	}
	if c.policy.JitterFrac > 0 {
		c.mu.Lock()
		u := c.rng.Float64()
		c.mu.Unlock()
		d += d * c.policy.JitterFrac * (2*u - 1)
	}
	return time.Duration(d)
}

// Do runs fn under the service's breaker and the retry policy.
//
// Transient failures retry with backoff until attempts are exhausted,
// the breaker opens, or ctx is done; the final error keeps its transient
// classification so callers can degrade instead of aborting. Permanent
// and unclassified errors return immediately — they indicate the inputs,
// not the service, and count as breaker successes (the service did
// answer). A call that succeeds but overruns the per-call Timeout on the
// policy's clock is classified ErrTimeout.
func (c *Caller) Do(ctx context.Context, service string, fn func() error) (Outcome, error) {
	b := c.Breaker(service)
	tripsBefore := b.Trips()
	var out Outcome
	var lastErr error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				out.Retries = maxInt(out.Attempts-1, 0)
				return out, err
			}
		}
		if err := b.Allow(); err != nil {
			out.Retries = maxInt(out.Attempts-1, 0)
			out.Tripped = b.Trips() > tripsBefore
			return out, err
		}
		out.Attempts++
		start := c.policy.Clock.Now()
		err := fn()
		if err == nil && c.policy.Timeout > 0 && c.policy.Clock.Now().Sub(start) > c.policy.Timeout {
			err = ErrTimeout
		}
		if err == nil {
			b.Success()
			out.Retries = out.Attempts - 1
			return out, nil
		}
		if !Transient(err) {
			// Permanent (or unclassified) failure: the service answered;
			// retrying the same inputs cannot help.
			b.Success()
			out.Retries = out.Attempts - 1
			return out, err
		}
		lastErr = err
		b.Failure()
		if attempt < c.policy.MaxAttempts-1 {
			c.policy.Clock.Sleep(c.backoff(attempt))
		}
	}
	out.Retries = out.Attempts - 1
	out.Tripped = b.Trips() > tripsBefore
	return out, fmt.Errorf("%s: %d attempt(s) exhausted: %w", service, out.Attempts, lastErr)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
