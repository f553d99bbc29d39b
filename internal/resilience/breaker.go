package resilience

import (
	"fmt"
	"sync"
	"time"

	"copycat/internal/obs"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed passes calls through, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets probe calls through; success closes the
	// breaker, failure re-opens it.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes one circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive transient failures open
	// the breaker.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before letting a
	// half-open probe through, measured on the Clock.
	Cooldown time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker again.
	HalfOpenProbes int
}

// DefaultBreakerConfig opens after 5 consecutive failures, cools down
// for 30s of clock time, and closes after one successful probe.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{FailureThreshold: 5, Cooldown: 30 * time.Second, HalfOpenProbes: 1}
}

// withDefaults fills zero fields from DefaultBreakerConfig.
func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = d.FailureThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = d.Cooldown
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = d.HalfOpenProbes
	}
	return c
}

// Breaker is a per-service circuit breaker: after FailureThreshold
// consecutive transient failures it fails fast for Cooldown, sparing a
// struggling service (and the interactive loop) the cost of doomed
// calls, then probes half-open. Safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	cfg       BreakerConfig
	clock     obs.Clock
	state     BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive probe successes while half-open
	openedAt  time.Time
	trips     int64
	// service names the breaker in the transition events it publishes
	// on stream (set by the owning Caller). Publishing happens AFTER
	// b.mu is released: the flight recorder snapshots metrics, which
	// walks back into Breaker.State, so publishing under the lock would
	// deadlock.
	service string
	stream  *obs.Stream
}

// NewBreaker builds a breaker on the given clock (SystemClock if nil).
func NewBreaker(cfg BreakerConfig, clock obs.Clock) *Breaker {
	if clock == nil {
		clock = obs.SystemClock{}
	}
	return &Breaker{cfg: cfg.withDefaults(), clock: clock}
}

// publish reports one state change on the breaker's stream; callers
// read stream under b.mu and call this after releasing it.
func (b *Breaker) publish(stream *obs.Stream, from, to BreakerState) {
	stream.Publish(obs.Event{
		Kind:   obs.KindLifecycle,
		Name:   obs.EventBreaker,
		Detail: fmt.Sprintf("%s: %s -> %s", b.service, from, to),
	})
}

// Allow reports whether a call may proceed: nil, or ErrBreakerOpen while
// the breaker is open. An open breaker whose cooldown has elapsed moves
// to half-open and admits the probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	if b.state == BreakerOpen {
		if b.clock.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.successes = 0
		stream := b.stream
		b.mu.Unlock()
		b.publish(stream, BreakerOpen, BreakerHalfOpen)
		return nil
	}
	b.mu.Unlock()
	return nil
}

// Success records a successful (or permanently-failed, i.e. answered)
// call.
func (b *Breaker) Success() {
	b.mu.Lock()
	closed := false
	switch b.state {
	case BreakerHalfOpen:
		b.successes++
		if b.successes >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.failures = 0
			closed = true
		}
	default:
		b.failures = 0
	}
	stream := b.stream
	b.mu.Unlock()
	if closed {
		b.publish(stream, BreakerHalfOpen, BreakerClosed)
	}
}

// Failure records a transient failure, opening the breaker when the
// consecutive-failure threshold is reached (or instantly from
// half-open).
func (b *Breaker) Failure() {
	b.mu.Lock()
	var from BreakerState
	tripped := false
	switch b.state {
	case BreakerHalfOpen:
		from = BreakerHalfOpen
		b.trip()
		tripped = true
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			from = BreakerClosed
			b.trip()
			tripped = true
		}
	}
	stream := b.stream
	b.mu.Unlock()
	if tripped {
		b.publish(stream, from, BreakerOpen)
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.clock.Now()
	b.failures = 0
	b.trips++
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips counts how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
