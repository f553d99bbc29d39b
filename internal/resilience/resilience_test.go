package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"copycat/internal/obs"
)

func TestClassification(t *testing.T) {
	base := errors.New("boom")
	tr := MarkTransient(base)
	pm := MarkPermanent(base)
	if !Transient(tr) || Permanent(tr) {
		t.Error("MarkTransient misclassified")
	}
	if !Permanent(pm) || Transient(pm) {
		t.Error("MarkPermanent misclassified")
	}
	if !errors.Is(tr, base) || !errors.Is(pm, base) {
		t.Error("marking should preserve the underlying error chain")
	}
	if tr.Error() != "boom" {
		t.Errorf("marked error text = %q", tr.Error())
	}
	if Transient(errors.New("plain")) || Permanent(errors.New("plain")) {
		t.Error("unclassified errors belong to neither class")
	}
	if !Transient(ErrTimeout) || !Transient(ErrBreakerOpen) {
		t.Error("timeout and breaker-open must be transient")
	}
	if MarkTransient(nil) != nil || MarkPermanent(nil) != nil {
		t.Error("marking nil should stay nil")
	}
	if wrapped := fmt.Errorf("svc X: %w", tr); !Transient(wrapped) {
		t.Error("classification must survive further wrapping")
	}
}

func TestVirtualClock(t *testing.T) {
	c := obs.NewVirtualClock()
	t0 := c.Now()
	c.Sleep(3 * time.Second)
	c.Advance(2 * time.Second)
	c.Sleep(-time.Second) // negative sleeps are ignored
	if got := c.Now().Sub(t0); got != 5*time.Second {
		t.Errorf("virtual elapsed = %v want 5s", got)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	clock := obs.NewVirtualClock()
	c := NewCaller(Policy{MaxAttempts: 3, Clock: clock, Seed: 7}, BreakerConfig{})
	calls := 0
	out, err := c.Do(context.Background(), "svc", func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if out.Attempts != 3 || out.Retries != 2 {
		t.Errorf("outcome = %+v want 3 attempts / 2 retries", out)
	}
	if clock.Now().Sub(time.Unix(0, 0).UTC()) == 0 {
		t.Error("backoff should have advanced the virtual clock")
	}
}

func TestRetryExhaustionKeepsTransientClass(t *testing.T) {
	c := NewCaller(Policy{MaxAttempts: 2, Clock: obs.NewVirtualClock()}, BreakerConfig{})
	_, err := c.Do(context.Background(), "svc", func() error {
		return MarkTransient(errors.New("down"))
	})
	if err == nil || !Transient(err) {
		t.Fatalf("exhausted retries should stay transient, got %v", err)
	}
}

func TestPermanentErrorDoesNotRetry(t *testing.T) {
	c := NewCaller(Policy{MaxAttempts: 5, Clock: obs.NewVirtualClock()}, BreakerConfig{})
	calls := 0
	out, err := c.Do(context.Background(), "svc", func() error {
		calls++
		return MarkPermanent(errors.New("bad input"))
	})
	if calls != 1 || out.Attempts != 1 {
		t.Errorf("permanent failure retried: %d calls", calls)
	}
	if !Permanent(err) {
		t.Errorf("err = %v want permanent", err)
	}
	// Unclassified errors behave the same way.
	calls = 0
	_, err = c.Do(context.Background(), "svc", func() error {
		calls++
		return errors.New("plain")
	})
	if calls != 1 || Transient(err) {
		t.Errorf("unclassified error retried (%d calls) or misclassified (%v)", calls, err)
	}
}

func TestTimeoutClassification(t *testing.T) {
	clock := obs.NewVirtualClock()
	c := NewCaller(Policy{MaxAttempts: 1, Timeout: 100 * time.Millisecond, Clock: clock}, BreakerConfig{})
	_, err := c.Do(context.Background(), "slow", func() error {
		clock.Sleep(250 * time.Millisecond) // a latency spike past the budget
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v want ErrTimeout", err)
	}
	if !Transient(err) {
		t.Error("timeouts must be transient")
	}
}

func TestJitterIsDeterministic(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		c := NewCaller(Policy{MaxAttempts: 4, Clock: obs.NewVirtualClock(), Seed: seed, JitterFrac: 0.5}, BreakerConfig{})
		var out []time.Duration
		for i := 0; i < 6; i++ {
			out = append(out, c.backoff(i%3))
		}
		return out
	}
	a, b := delays(42), delays(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	diff := false
	for i, d := range delays(43) {
		if d != a[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should jitter differently")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	clock := obs.NewVirtualClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Second, HalfOpenProbes: 1}, clock)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Failure()
	}
	b.Success() // a success resets the consecutive count
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state = %v trips = %d; want open after 3 consecutive failures", b.State(), b.Trips())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker should reject, got %v", err)
	}
	clock.Advance(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("cooled-down breaker should admit a probe, got %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v want half-open", b.State())
	}
	b.Failure() // failed probe re-opens instantly
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe should re-open: state=%v trips=%d", b.State(), b.Trips())
	}
	clock.Advance(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe should close, state = %v", b.State())
	}
}

func TestCallerTripsAndShortCircuits(t *testing.T) {
	clock := obs.NewVirtualClock()
	c := NewCaller(
		Policy{MaxAttempts: 2, Clock: clock},
		BreakerConfig{FailureThreshold: 4, Cooldown: time.Minute},
	)
	calls := 0
	fail := func() error { calls++; return MarkTransient(errors.New("down")) }
	// First two rows burn 2 attempts each and trip the breaker.
	_, _ = c.Do(context.Background(), "svc", fail)
	out, err := c.Do(context.Background(), "svc", fail)
	if !out.Tripped {
		t.Fatalf("second call should have tripped the breaker (err %v)", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d want 4", calls)
	}
	// Subsequent calls fail fast without touching the service.
	out, err = c.Do(context.Background(), "svc", fail)
	if calls != 4 || !errors.Is(err, ErrBreakerOpen) || out.Attempts != 0 {
		t.Fatalf("open breaker must short-circuit: calls=%d err=%v out=%+v", calls, err, out)
	}
	// Other services are unaffected.
	if _, err := c.Do(context.Background(), "other", func() error { return nil }); err != nil {
		t.Fatalf("independent service hit the breaker: %v", err)
	}
}

func TestDoHonorsContext(t *testing.T) {
	c := NewCaller(Policy{MaxAttempts: 3, Clock: obs.NewVirtualClock()}, BreakerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := c.Do(ctx, "svc", func() error { calls++; return nil })
	if calls != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx should stop before calling: calls=%d err=%v", calls, err)
	}
}
