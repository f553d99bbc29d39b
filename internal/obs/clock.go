package obs

import (
	"sync"
	"time"
)

// Clock abstracts time for the whole system: stage timing, span and
// event timestamps, SLO windows, incident stamps, and the resilience
// layer's backoff sleeps, breaker cooldowns, latency budgets, and
// injected fault latency all run on a Clock, so tests and experiments
// replace the wall clock with a VirtualClock and stay deterministic with
// zero real sleeping.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep pauses the caller for d.
	Sleep(d time.Duration)
}

// SystemClock is the wall clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (SystemClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a deterministic clock: Sleep advances Now instantly.
// Concurrent sleepers serialize their advances, so total virtual time is
// the sum of all sleeps — a simple, reproducible latency model. Safe for
// concurrent use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock starts a virtual clock at the Unix epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: time.Unix(0, 0).UTC()}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock by advancing the clock without blocking.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Advance moves the clock forward explicitly (e.g. past a breaker
// cooldown in tests).
func (c *VirtualClock) Advance(d time.Duration) { c.Sleep(d) }
