package obs

import (
	"testing"
	"time"
)

// TestStreamBindFeedsSessionConsumers: a Bind handle feeds one session's
// quality tracker and "latency.<stage>" histograms on the same Publish
// that feeds the host's consumers; For handles and the host stream
// itself do not touch them; a detached handle feeds only them.
func TestStreamBindFeedsSessionConsumers(t *testing.T) {
	host := NewHostStream(NewVirtualClock(), NewRegistry())
	quality, stages := NewQualityTracker(), NewRegistry()
	bound := host.For("s1", "acme").Bind(quality, stages)
	if bound.Session() != "s1" {
		t.Fatalf("Bind dropped the handle's session: %q", bound.Session())
	}

	bound.Publish(Event{Kind: KindStage, Name: SLOStage, Dur: time.Millisecond})
	bound.Publish(Event{Kind: KindQuality, Quality: &QualityEvent{Kind: FeedbackColumns, Accepted: true}})
	host.For("s2", "acme").Publish(Event{Kind: KindQuality, Quality: &QualityEvent{Kind: FeedbackColumns, Rank: -1}})

	if n := stages.Histogram("latency." + SLOStage).Count(); n != 1 {
		t.Fatalf("session stage histogram count = %d, want 1", n)
	}
	if st := quality.Snapshot(); st.TotalAccepts != 1 || st.TotalRejects != 0 {
		t.Fatalf("session quality = %+v, want the bound session's accept only", st)
	}
	if st := host.Quality(); st.TotalAccepts != 1 || st.TotalRejects != 1 {
		t.Fatalf("host quality = %+v, want both sessions", st)
	}
	if st := host.TenantQuality()["acme"]; st.TotalAccepts != 1 || st.TotalRejects != 1 {
		t.Fatalf("tenant quality = %+v", st)
	}
	if n := host.hostStages.Histogram("host.latency." + SLOStage).Count(); n != 1 {
		t.Fatalf("host stage histogram count = %d, want 1", n)
	}
	if st := host.SLO(); st.FastCount != 1 {
		t.Fatalf("host SLO count = %d, want 1", st.FastCount)
	}

	// A detached handle keeps the session's own telemetry and nothing else.
	detached := (*Stream)(nil).Bind(quality, stages)
	detached.Publish(Event{Kind: KindStage, Name: SLOStage, Dur: time.Millisecond})
	detached.Publish(Event{Kind: KindQuality, Quality: &QualityEvent{Kind: FeedbackColumns, Rank: -1}})
	detached.Publish(Event{Kind: KindLifecycle, Name: EventShed})
	if n := stages.Histogram("latency." + SLOStage).Count(); n != 2 {
		t.Fatalf("detached stage histogram count = %d, want 2", n)
	}
	if st := quality.Snapshot(); st.TotalRejects != 1 {
		t.Fatalf("detached quality = %+v, want one reject", st)
	}
	if detached.For("x", "") != nil || detached.Snapshot() != nil || detached.SLO().FastCount != 0 {
		t.Fatal("a detached handle should be inert beyond its session consumers")
	}
	if host.SLO().FastCount != 1 || len(host.Snapshot()) != 0 {
		t.Fatal("a detached handle must not reach any stream")
	}
}
