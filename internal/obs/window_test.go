package obs

import (
	"sync"
	"testing"
	"time"
)

func TestWindowHistogramRotation(t *testing.T) {
	clock := NewVirtualClock()
	bounds := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	// 1-minute window in 6 slots of 10s.
	w := NewWindowHistogram(bounds, time.Minute, 6)
	if got := w.Window(); got != time.Minute {
		t.Fatalf("Window = %v, want 1m", got)
	}

	w.Observe(clock.Now(), 5*time.Millisecond)
	w.Observe(clock.Now(), 50*time.Millisecond)
	if got := windowCount(w, clock.Now()); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}

	// 30s later both observations are still inside the window.
	clock.Advance(30 * time.Second)
	w.Observe(clock.Now(), 5*time.Millisecond)
	if got := windowCount(w, clock.Now()); got != 3 {
		t.Fatalf("count after 30s = %d, want 3", got)
	}

	// 45s more: the first two (age 75s) expired, the third (45s) remains.
	clock.Advance(45 * time.Second)
	if got := windowCount(w, clock.Now()); got != 1 {
		t.Fatalf("count after 75s = %d, want 1", got)
	}

	// A jump far past the window clears everything.
	clock.Advance(10 * time.Minute)
	if got := windowCount(w, clock.Now()); got != 0 {
		t.Fatalf("count after 10m idle = %d, want 0", got)
	}
	// And the ring still accepts fresh observations afterwards.
	w.Observe(clock.Now(), time.Millisecond)
	if got := windowCount(w, clock.Now()); got != 1 {
		t.Fatalf("count after restart = %d, want 1", got)
	}
}

func TestWindowHistogramAboveThreshold(t *testing.T) {
	clock := NewVirtualClock()
	w := NewWindowHistogram(DefaultLatencyBuckets(), time.Minute, 6)
	for i := 0; i < 9; i++ {
		w.Observe(clock.Now(), time.Millisecond) // fast
	}
	w.Observe(clock.Now(), 40*time.Millisecond) // slow
	above, total := w.AboveThreshold(clock.Now(), 25*time.Millisecond)
	if above != 1 || total != 10 {
		t.Fatalf("AboveThreshold = (%d, %d), want (1, 10)", above, total)
	}
	// Observations exactly at the threshold bound are within objective.
	w.Observe(clock.Now(), 25*time.Millisecond)
	above, total = w.AboveThreshold(clock.Now(), 25*time.Millisecond)
	if above != 1 || total != 11 {
		t.Fatalf("AboveThreshold at bound = (%d, %d), want (1, 11)", above, total)
	}
}

func TestWindowHistogramSnapshotQuantiles(t *testing.T) {
	clock := NewVirtualClock()
	w := NewWindowHistogram(DefaultLatencyBuckets(), time.Minute, 6)
	for i := 0; i < 100; i++ {
		w.Observe(clock.Now(), 2*time.Millisecond)
	}
	if n := windowCount(w, clock.Now()); n != 100 {
		t.Fatalf("count = %d", n)
	}
	if p99 := w.Quantile(clock.Now(), 0.99); p99 <= 0 || p99 > 2500*time.Microsecond {
		t.Fatalf("p99 = %v, want in (0, 2.5ms]", p99)
	}
	// Slide the whole window past the observations: empty.
	clock.Advance(2 * time.Minute)
	if n := windowCount(w, clock.Now()); n != 0 || w.Quantile(clock.Now(), 0.99) != 0 {
		t.Fatalf("expired window holds %d observations, want none", n)
	}
}

// windowCount is the number of observations inside the window ending
// at now.
func windowCount(w *WindowHistogram, now time.Time) int64 {
	_, total := w.AboveThreshold(now, 0)
	return total
}

func TestWindowHistogramNil(t *testing.T) {
	clock := NewVirtualClock()
	var w *WindowHistogram
	w.Observe(clock.Now(), time.Second) // must not panic
	if windowCount(w, clock.Now()) != 0 || w.Quantile(clock.Now(), 0.99) != 0 || w.Window() != 0 {
		t.Fatal("nil WindowHistogram should read as zero")
	}
	if above, total := w.AboveThreshold(clock.Now(), time.Millisecond); above != 0 || total != 0 {
		t.Fatal("nil AboveThreshold should be zero")
	}
}

func TestWindowHistogramConcurrent(t *testing.T) {
	clock := NewVirtualClock()
	w := NewWindowHistogram(DefaultLatencyBuckets(), time.Minute, 6)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(clock.Now(), time.Duration(i%20)*time.Millisecond)
				if i%50 == 0 {
					_ = w.Quantile(clock.Now(), 0.99)
					_, _ = w.AboveThreshold(clock.Now(), 10*time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	if got := windowCount(w, clock.Now()); got != 2000 {
		t.Fatalf("count = %d, want 2000", got)
	}
}

func TestSLOTrackerBurnRates(t *testing.T) {
	clock := NewVirtualClock()
	tr := NewSLOTracker()

	// 100 fast refreshes: zero burn, no alerts.
	for i := 0; i < 100; i++ {
		tr.Observe(clock.Now(), 2*time.Millisecond)
	}
	st := tr.Status(clock.Now())
	if st.FastBurn != 0 || st.FastAlert || st.SlowAlert {
		t.Fatalf("healthy status = %+v", st)
	}
	if st.FastCount != 100 || st.SlowCount != 100 {
		t.Fatalf("counts = %d/%d, want 100/100", st.FastCount, st.SlowCount)
	}

	// Inject slow refreshes: 50 of 150 over threshold → err rate 1/3,
	// burn = (1/3)/0.01 ≈ 33 ≥ 14.4 → fast alert (and slow ≥ 6).
	for i := 0; i < 50; i++ {
		tr.Observe(clock.Now(), 40*time.Millisecond)
	}
	st = tr.Status(clock.Now())
	if !st.FastAlert {
		t.Fatalf("fast-burn alert should fire: %+v", st)
	}
	if !st.SlowAlert {
		t.Fatalf("slow-burn alert should fire: %+v", st)
	}
	if st.FastBurn < 30 || st.FastBurn > 36 {
		t.Fatalf("fast burn = %.2f, want ≈33.3", st.FastBurn)
	}
	if st.FastP99Ns <= (25 * time.Millisecond).Nanoseconds() {
		t.Fatalf("windowed p99 should exceed threshold: %d", st.FastP99Ns)
	}

	// 6 minutes later the fast window has rolled clear but the 1h slow
	// window still remembers: fast alert clears, slow alert holds.
	clock.Advance(6 * time.Minute)
	st = tr.Status(clock.Now())
	if st.FastAlert {
		t.Fatalf("fast alert should clear after the fast window rolls: %+v", st)
	}
	if st.FastCount != 0 {
		t.Fatalf("fast window should be empty, got %d", st.FastCount)
	}
	if !st.SlowAlert {
		t.Fatalf("slow alert should persist inside the slow window: %+v", st)
	}

	// And 2 hours later everything is forgotten.
	clock.Advance(2 * time.Hour)
	st = tr.Status(clock.Now())
	if st.FastAlert || st.SlowAlert || st.SlowCount != 0 {
		t.Fatalf("status should be clean after the slow window rolls: %+v", st)
	}
}

func TestSLOTrackerNilAndDefaults(t *testing.T) {
	clock := NewVirtualClock()
	var tr *SLOTracker
	tr.Observe(clock.Now(), time.Second)
	if st := tr.Status(clock.Now()); st.FastAlert || st.SlowAlert || st.FastCount != 0 {
		t.Fatalf("nil status = %+v", st)
	}
	// The objective is fixed: 99% of suggest.refresh under 25ms, judged
	// over 5m/1h windows.
	st := NewSLOTracker().Status(clock.Now())
	if st.Stage != "suggest.refresh" || st.ThresholdNs != (25*time.Millisecond).Nanoseconds() || st.Target != 0.99 {
		t.Fatalf("objective = %+v", st)
	}
	if st.FastWindowNs != (5*time.Minute).Nanoseconds() || st.SlowWindowNs != time.Hour.Nanoseconds() {
		t.Fatalf("windows = %+v", st)
	}
	if s := st.String(); s == "" {
		t.Fatal("status should render")
	}
}

// fakeClock is a hand-set clock for jump tests that VirtualClock (which
// only advances) cannot express.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

// TestWindowHistogramLargeClockJumps drives rotation across virtual
// clock jumps far beyond the window — many whole windows forward, exact
// slot multiples, and a backwards jump (a virtual clock injected after
// construction re-anchoring to epoch). The ring must clear stale slots,
// stay consistent, and keep accepting observations on the new timeline.
func TestWindowHistogramLargeClockJumps(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_000_000, 0)}
	bounds := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	w := NewWindowHistogram(bounds, time.Minute, 6)

	// A jump of thousands of windows clears everything in one rotate,
	// without walking the ring step by step.
	w.Observe(clock.Now(), 5*time.Millisecond)
	clock.Set(clock.Now().Add(5000 * time.Minute))
	if got := windowCount(w, clock.Now()); got != 0 {
		t.Fatalf("count after 5000-window jump = %d, want 0", got)
	}
	w.Observe(clock.Now(), 50*time.Millisecond)
	if got := windowCount(w, clock.Now()); got != 1 {
		t.Fatalf("count after landing = %d, want 1", got)
	}

	// An exact multiple of the slot width expires precisely the slots it
	// should: the observation is 6 slots old once exactly one window has
	// passed, so it is gone, and one taken half a window ago remains.
	clock.Set(clock.Now().Add(30 * time.Second))
	w.Observe(clock.Now(), 5*time.Millisecond)
	clock.Set(clock.Now().Add(30 * time.Second))
	if got := windowCount(w, clock.Now()); got != 1 {
		t.Fatalf("count at exactly one window = %d, want 1 (old slot expired)", got)
	}

	// A backwards jump (virtual clock injected after construction) resets
	// and re-anchors instead of stalling until the clock catches up.
	clock.Set(time.Unix(0, 0))
	if got := windowCount(w, clock.Now()); got != 0 {
		t.Fatalf("count after backwards jump = %d, want 0", got)
	}
	w.Observe(clock.Now(), time.Millisecond)
	w.Observe(clock.Now(), 200*time.Millisecond)
	if got := windowCount(w, clock.Now()); got != 2 {
		t.Fatalf("count on the re-anchored timeline = %d, want 2", got)
	}
	// The re-anchored timeline rotates normally from here.
	clock.Set(time.Unix(0, 0).Add(61 * time.Second))
	if got := windowCount(w, clock.Now()); got != 0 {
		t.Fatalf("count one window after re-anchor = %d, want 0", got)
	}
	if above, total := w.AboveThreshold(clock.Now(), 10*time.Millisecond); above != 0 || total != 0 {
		t.Fatalf("AboveThreshold after expiry = (%d, %d), want (0, 0)", above, total)
	}
}

// TestWindowHistogramLateObservation covers callers that read the clock
// before taking the lock: one that read its instant just before a slot
// boundary may land after one that read just past it. The late sample
// counts in the live sub-window; nothing already recorded is lost.
func TestWindowHistogramLateObservation(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	w := NewWindowHistogram(DefaultLatencyBuckets(), time.Minute, 6)
	slot := w.Window() / 6
	w.Observe(t0, time.Millisecond)
	w.Observe(t0.Add(slot), time.Millisecond)
	w.Observe(t0.Add(slot-time.Nanosecond), time.Millisecond)
	if got := windowCount(w, t0.Add(slot)); got != 3 {
		t.Fatalf("count after a late observation = %d, want 3", got)
	}
	// A late read (e.g. a scrape) changes nothing either.
	if got := windowCount(w, t0.Add(slot-time.Nanosecond)); got != 3 {
		t.Fatalf("count read at a late instant = %d, want 3", got)
	}
}

// TestSLOTrackerLateObservation: an out-of-order observation across a
// fast-window slot boundary leaves the SLO status as if it had arrived
// in order.
func TestSLOTrackerLateObservation(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	slot := sloFastWindow / sloSlots
	inOrder, late := NewSLOTracker(), NewSLOTracker()
	for i := 0; i < 50; i++ {
		inOrder.Observe(t0, 40*time.Millisecond)
		late.Observe(t0, 40*time.Millisecond)
	}
	inOrder.Observe(t0.Add(slot-time.Nanosecond), time.Millisecond)
	inOrder.Observe(t0.Add(slot), time.Millisecond)
	late.Observe(t0.Add(slot), time.Millisecond)
	late.Observe(t0.Add(slot-time.Nanosecond), time.Millisecond)
	want := inOrder.Status(t0.Add(slot))
	if got := late.Status(t0.Add(slot)); got != want {
		t.Fatalf("status after a late observation = %+v, want %+v", got, want)
	}
	if want.FastCount != 52 || !want.FastAlert {
		t.Fatalf("in-order status = %+v, want 52 samples and a fast alert", want)
	}
}
