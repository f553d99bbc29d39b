package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"copycat/internal/obs"
	"copycat/internal/resilience"
	"copycat/internal/table"
)

// faultySvc resolves City→Zip but fails the first failPerKey attempts for
// each distinct input, transiently or permanently.
type faultySvc struct {
	failPerKey int
	permanent  bool
	calls      int
	attempts   map[string]int
}

func (s *faultySvc) Name() string              { return "FaultyZip" }
func (s *faultySvc) InputSchema() table.Schema { return table.NewSchema("City") }
func (s *faultySvc) OutputSchema() table.Schema {
	return table.NewSchema("Zip")
}
func (s *faultySvc) Call(in table.Tuple) ([]table.Tuple, error) {
	s.calls++
	if s.attempts == nil {
		s.attempts = map[string]int{}
	}
	k := in[0].Str()
	s.attempts[k]++
	if s.attempts[k] <= s.failPerKey {
		if s.permanent {
			return nil, resilience.MarkPermanent(errors.New("rejected"))
		}
		return nil, resilience.MarkTransient(errors.New("flaky"))
	}
	return []table.Tuple{{table.S("33000")}}, nil
}

func resilientCtx(maxAttempts int, bc resilience.BreakerConfig) *ExecCtx {
	caller := resilience.NewCaller(resilience.Policy{
		MaxAttempts: maxAttempts,
		Clock:       obs.NewVirtualClock(),
		Seed:        1,
	}, bc)
	return NewExecCtx(context.Background(), WithResilience(caller))
}

func TestDependentJoinRetriesTransientFailures(t *testing.T) {
	svc := &faultySvc{failPerKey: 2}
	dj, err := NewDependentJoinByName(NewScan(contacts()), svc, "City")
	if err != nil {
		t.Fatal(err)
	}
	ec := resilientCtx(3, resilience.BreakerConfig{})
	res, err := dj.Execute(ec)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 2 || res.Degraded != 0 {
		t.Fatalf("rows=%d degraded=%d; retries should have recovered both rows", len(res.Rows), res.Degraded)
	}
	snap := ec.Stats().Snapshot()
	if snap.Retries != 4 { // 2 keys × 2 retries each
		t.Errorf("retries = %d want 4", snap.Retries)
	}
	if snap.DegradedRows != 0 {
		t.Errorf("degraded rows = %d want 0", snap.DegradedRows)
	}
}

func TestDependentJoinDegradesExhaustedRows(t *testing.T) {
	svc := &faultySvc{failPerKey: 1000} // never recovers
	dj, err := NewDependentJoinByName(NewScan(contacts()), svc, "City")
	if err != nil {
		t.Fatal(err)
	}
	ec := resilientCtx(2, resilience.BreakerConfig{FailureThreshold: 100})
	res, err := dj.Execute(ec)
	if err != nil {
		t.Fatalf("transient exhaustion must not fail the plan: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("inner join should drop degraded rows, got %d", len(res.Rows))
	}
	if res.Degraded != 2 {
		t.Errorf("Result.Degraded = %d want 2", res.Degraded)
	}
	if got := ec.Stats().Snapshot().DegradedRows; got != 2 {
		t.Errorf("Stats.DegradedRows = %d want 2", got)
	}
}

func TestDependentJoinOuterNullPadsDegradedRows(t *testing.T) {
	svc := &faultySvc{failPerKey: 1000}
	dj, err := NewDependentJoinByName(NewScan(contacts()), svc, "City")
	if err != nil {
		t.Fatal(err)
	}
	dj.Outer = true
	ec := resilientCtx(2, resilience.BreakerConfig{FailureThreshold: 100})
	res, err := dj.Execute(ec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Degraded != 2 {
		t.Fatalf("rows=%d degraded=%d; outer join should null-pad degraded rows", len(res.Rows), res.Degraded)
	}
	for _, a := range res.Rows {
		if !a.Row[len(a.Row)-1].IsNull() {
			t.Errorf("degraded outer row should have null service output, got %v", a.Row)
		}
	}
}

func TestDependentJoinPermanentErrorFailsPlan(t *testing.T) {
	svc := &faultySvc{failPerKey: 1000, permanent: true}
	dj, err := NewDependentJoinByName(NewScan(contacts()), svc, "City")
	if err != nil {
		t.Fatal(err)
	}
	_, err = dj.Execute(resilientCtx(3, resilience.BreakerConfig{}))
	if err == nil || !strings.Contains(err.Error(), "FaultyZip") {
		t.Fatalf("permanent errors must fail the plan, got %v", err)
	}
	if svc.calls != 1 {
		t.Errorf("permanent error retried: %d calls", svc.calls)
	}
}

func TestDependentJoinBreakerShortCircuits(t *testing.T) {
	rel := table.NewRelation("Cities", table.NewSchema("City"))
	for _, c := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		rel.MustAppend(table.FromStrings([]string{c}))
	}
	svc := &faultySvc{failPerKey: 1000}
	dj, err := NewDependentJoinByName(NewScan(rel), svc, "City")
	if err != nil {
		t.Fatal(err)
	}
	ec := resilientCtx(2, resilience.BreakerConfig{FailureThreshold: 3, Cooldown: 3600e9})
	res, err := dj.Execute(ec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 8 {
		t.Errorf("Degraded = %d want 8 (all rows)", res.Degraded)
	}
	// Without the breaker this would cost 8 rows × 2 attempts = 16 calls;
	// it opens after 3 consecutive failures and short-circuits the rest.
	if svc.calls >= 16 {
		t.Errorf("breaker never short-circuited: %d calls", svc.calls)
	}
	snap := ec.Stats().Snapshot()
	if snap.BreakerTrips == 0 {
		t.Error("expected at least one breaker trip in stats")
	}
}

func TestNilResilienceMatchesSeedBehavior(t *testing.T) {
	// Without a resilience layer any service error — even one marked
	// transient — fails the plan exactly as the seed engine did.
	svc := &faultySvc{failPerKey: 1000}
	dj, err := NewDependentJoinByName(NewScan(contacts()), svc, "City")
	if err != nil {
		t.Fatal(err)
	}
	_, err = dj.Execute(Background())
	if err == nil || !strings.Contains(err.Error(), "FaultyZip") {
		t.Fatalf("nil resilience should fail fast, got %v", err)
	}
	if svc.calls != 1 {
		t.Errorf("calls = %d want 1 (no retries without a caller)", svc.calls)
	}
}

func TestDegradedPropagatesThroughOperators(t *testing.T) {
	svc := &faultySvc{failPerKey: 1000}
	dj, err := NewDependentJoinByName(NewScan(contacts()), svc, "City")
	if err != nil {
		t.Fatal(err)
	}
	dj.Outer = true
	var plan Plan = &Distinct{Input: &Select{
		Input: dj,
		Pred:  func(table.Tuple) bool { return true },
		Desc:  "true",
	}}
	plan = &Limit{Input: plan, N: 10}
	res, err := plan.Execute(resilientCtx(1, resilience.BreakerConfig{FailureThreshold: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 2 {
		t.Errorf("Degraded = %d want 2 after Select/Distinct/Limit", res.Degraded)
	}
}
