package obs

import (
	"sync"
	"testing"
	"time"
)

// publishSpan publishes one span end on s.
func publishSpan(s *Stream, sp SpanEvent) { s.Publish(Event{Kind: KindSpan, Span: &sp}) }

// The span feed behind /trace/stream is the stream's ring: these tests
// pin its publish/since, eviction, wake-up, nil, and dropped contracts.

func TestSpanRingPublishSince(t *testing.T) {
	r := NewStream(NewVirtualClock())
	for i := 0; i < 3; i++ {
		publishSpan(r, SpanEvent{Name: "s", DurNs: int64(i)})
	}
	// Dispatch-only kinds are not retained.
	r.Publish(Event{Kind: KindStage, Name: "suggest.refresh"})
	events, next, _ := r.Since(0)
	if len(events) != 3 || next != 3 {
		t.Fatalf("Since(0) = %d events, next %d", len(events), next)
	}
	for i, ev := range events {
		if ev.Seq != int64(i) || ev.Span.DurNs != int64(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// Resuming from the cursor returns nothing new.
	if events, _, _ := r.Since(next); len(events) != 0 {
		t.Fatalf("Since(cursor) should be empty, got %d", len(events))
	}
}

func TestSpanRingEviction(t *testing.T) {
	r := NewStream(NewVirtualClock())
	for i := 0; i < StreamCapacity+6; i++ {
		publishSpan(r, SpanEvent{DurNs: int64(i)})
	}
	// A cursor older than the retained window resumes at the oldest span.
	events, next, _ := r.Since(0)
	if len(events) != StreamCapacity || events[0].Seq != 6 || events[0].Span.DurNs != 6 || next != StreamCapacity+6 {
		t.Fatalf("Since(0) after eviction = %d events, first seq %d, next %d",
			len(events), events[0].Seq, next)
	}
}

func TestSpanRingWaitWakesOnPublish(t *testing.T) {
	r := NewStream(nil)
	_, cursor, wait := r.Since(0)
	done := make(chan SpanEvent, 1)
	go func() {
		<-wait
		events, _, _ := r.Since(cursor)
		done <- *events[0].Span
	}()
	publishSpan(r, SpanEvent{Name: "wake"})
	select {
	case ev := <-done:
		if ev.Name != "wake" {
			t.Fatalf("got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never woke")
	}
}

func TestSpanRingNil(t *testing.T) {
	var r *Stream
	publishSpan(r, SpanEvent{}) // must not panic
	events, next, wait := r.Since(0)
	if len(events) != 0 || next != 0 || r.Dropped() != 0 {
		t.Fatal("nil stream should read as empty")
	}
	if wait != nil { // nothing can ever arrive, so there is nothing to wait on
		t.Fatal("nil ring should return no wait channel")
	}
}

func TestTraceSinkPublishesEndedSpans(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewTrace(clock)
	ring := NewStream(clock)
	tr.SetStream(ring)
	spans := func() []SpanEvent {
		events, _, _ := ring.Since(0)
		out := make([]SpanEvent, len(events))
		for i, ev := range events {
			out[i] = *ev.Span
		}
		return out
	}

	root := tr.Start("refresh", "stage")
	clock.Advance(time.Millisecond)
	child := root.Child("execute", "engine")
	child.SetAttr("candidate", "zip")
	clock.Advance(2 * time.Millisecond)
	child.End()
	root.End()

	events := spans()
	if len(events) != 2 {
		t.Fatalf("ring has %d events, want 2 (end order)", len(events))
	}
	if events[0].Name != "execute" || events[1].Name != "refresh" {
		t.Fatalf("end order wrong: %q, %q", events[0].Name, events[1].Name)
	}
	if events[0].Parent != events[1].ID {
		t.Fatal("child should reference root's id")
	}
	if events[0].DurNs != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("child dur = %d", events[0].DurNs)
	}
	if len(events[0].Attrs) != 1 || events[0].Attrs[0].Key != "candidate" {
		t.Fatalf("attrs = %+v", events[0].Attrs)
	}

	// Detaching the stream stops publication; the trace itself still
	// records.
	tr.SetStream(nil)
	tr.Start("quiet", "stage").End()
	if len(spans()) != 2 {
		t.Fatal("detaching the stream should stop publication")
	}
	if tr.Len() != 3 {
		t.Fatalf("trace len = %d, want 3", tr.Len())
	}

	// Concurrent spans publishing into one stream race-cleanly.
	var wg sync.WaitGroup
	tr.SetStream(ring)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Start("par", "stage").End()
			}
		}()
	}
	wg.Wait()
	if got := len(spans()); got != 202 {
		t.Fatalf("stream retained %d spans, want 202", got)
	}
}

// TestSpanRingDroppedCountsSlowSubscribers is the spans.dropped
// contract, on the generic ring the stream keeps its events in: a
// subscriber whose cursor fell off the ring resumes at the oldest
// retained entry and the miss is counted, while fresh subscribers
// (cursor 0 on an already-wrapped ring) are not counted as losses.
func TestSpanRingDroppedCountsSlowSubscribers(t *testing.T) {
	ring := NewRing[SpanEvent](4)
	seqOf := func(next int64, events []SpanEvent) int64 { return next - int64(len(events)) }
	for i := 0; i < 2; i++ {
		ring.Push(SpanEvent{Name: "early"})
	}
	_, cursor, _ := ring.Since(0) // subscriber caught up at seq 2
	if cursor != 2 {
		t.Fatalf("cursor = %d, want 2", cursor)
	}

	// The ring wraps while the subscriber sleeps: seqs 2..7 are gone
	// except the last 4 (6..9 retained, first=6).
	for i := 0; i < 8; i++ {
		ring.Push(SpanEvent{Name: "burst"})
	}

	// A fresh subscriber starting at 0 is not a loss.
	if events, _, _ := ring.Since(0); len(events) != 4 {
		t.Fatalf("fresh subscriber got %d events, want 4", len(events))
	}
	if got := ring.Dropped(); got != 0 {
		t.Fatalf("fresh subscriber counted as dropped: %d", got)
	}

	// The lagging subscriber resumes at the oldest retained span and its
	// 4 missed spans (seqs 2..5) are counted.
	events, next, _ := ring.Since(cursor)
	if len(events) != 4 || next != 10 {
		t.Fatalf("lagging subscriber got %d events next=%d, want 4 events next=10", len(events), next)
	}
	if seq := seqOf(next, events); seq != 6 {
		t.Fatalf("resumed at seq %d, want 6 (oldest retained)", seq)
	}
	if got := ring.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}

	// Losses accumulate across subscribers.
	for i := 0; i < 6; i++ {
		ring.Push(SpanEvent{Name: "more"})
	}
	ring.Since(next) // next=10, first=12 → 2 more dropped
	if got := ring.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}

	// Nil ring stays inert.
	var nilRing *Ring[SpanEvent]
	if got := nilRing.Dropped(); got != 0 {
		t.Fatalf("nil ring Dropped = %d", got)
	}
}

func TestRingOverwritesOldestInPlace(t *testing.T) {
	r := NewRing[int](3)
	for i := 0; i < 7; i++ {
		if seq := r.Push(i); seq != int64(i) {
			t.Fatalf("push %d got seq %d", i, seq)
		}
	}
	got, next, _ := r.Since(0)
	if next != 7 || len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("Since(0) = %v next %d, want [4 5 6] next 7", got, next)
	}
	if got, _, _ := r.Since(5); len(got) != 2 || got[0] != 5 {
		t.Fatalf("Since(5) = %v, want [5 6]", got)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("after Reset len = %d", r.Len())
	}
	if seq := r.Push(9); seq != 7 {
		t.Fatalf("sequence should continue across Reset, got %d", seq)
	}
}

// TestRingPushFullAllocatesNothing: once full, a push overwrites the
// oldest entry in place — no copy of retained entries, no allocation —
// as long as no reader waits on the wake channel.
func TestRingPushFullAllocatesNothing(t *testing.T) {
	r := NewRing[Event](StreamCapacity)
	for i := 0; i < StreamCapacity; i++ {
		r.Push(Event{})
	}
	ev := Event{Kind: KindSpan, Span: &SpanEvent{Name: "x"}}
	if n := testing.AllocsPerRun(1000, func() { r.Push(ev) }); n != 0 {
		t.Fatalf("push on a full ring allocates %.1f times", n)
	}
}

// TestRingSnapshotLeavesNoWakeChannel: one-off readers copy the ring
// without creating a wake channel, so the next push closes nothing;
// only a Since follower makes one.
func TestRingSnapshotLeavesNoWakeChannel(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	got := r.Snapshot()
	if len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Fatalf("Snapshot = %v, want [2 3 4 5]", got)
	}
	if r.wake != nil {
		t.Fatal("Snapshot created a wake channel")
	}
	if _, _, wake := r.Since(6); wake == nil || r.wake == nil {
		t.Fatal("Since should hand out a wake channel")
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d after fresh reads", r.Dropped())
	}
	if (*Ring[int])(nil).Snapshot() != nil {
		t.Fatal("nil ring Snapshot should be nil")
	}
}

// TestStreamSnapshotNumbersEvents: Stream.Snapshot fills in stream
// sequence numbers like Since does.
func TestStreamSnapshotNumbersEvents(t *testing.T) {
	s := NewStream(NewVirtualClock())
	for i := 0; i < StreamCapacity+3; i++ {
		publishSpan(s, SpanEvent{DurNs: int64(i)})
	}
	evs := s.Snapshot()
	if len(evs) != StreamCapacity || evs[0].Seq != 3 || evs[0].Span.DurNs != 3 {
		t.Fatalf("Snapshot = %d events, first %+v", len(evs), evs[0])
	}
}

// BenchmarkRingPushFull measures the steady-state publish cost of a full
// stream-sized ring.
func BenchmarkRingPushFull(b *testing.B) {
	r := NewRing[Event](StreamCapacity)
	for i := 0; i < StreamCapacity; i++ {
		r.Push(Event{})
	}
	ev := Event{Kind: KindSpan, Span: &SpanEvent{Name: "x"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(ev)
	}
}
