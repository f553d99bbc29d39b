package obs

import (
	"sync"
	"time"
)

// WindowHistogram is a rolling-window latency histogram: a ring of
// sub-window bucket arrays that rotates with the time its callers pass
// in, so its quantiles and threshold counts cover only the last Window
// of behaviour instead of everything since boot. It backs the SLO tracker's burn-rate math.
//
// Rotation is driven entirely by the instants callers pass — fed from a
// VirtualClock the whole window mechanism is deterministic. The bucket
// arrays are allocated at the first observation. A nil
// *WindowHistogram is inert, like every other obs instrument.
type WindowHistogram struct {
	mu        sync.Mutex
	bounds    []time.Duration // ascending upper bounds (shared with slots)
	slot      time.Duration   // width of one sub-window
	slots     []windowSlot    // ring; slots[head] is the live sub-window
	head      int
	headStart time.Time // start instant of the live sub-window
}

// windowSlot is one sub-window's bucket counts.
type windowSlot struct {
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
}

// NewWindowHistogram creates a rolling histogram covering `window` of
// clock time split into `slots` sub-windows (minimum 2), with the given
// ascending bucket bounds (not copied; callers must not modify them).
func NewWindowHistogram(bounds []time.Duration, window time.Duration, slots int) *WindowHistogram {
	if slots < 2 {
		slots = 2
	}
	if window <= 0 {
		window = time.Minute
	}
	return &WindowHistogram{
		bounds: bounds,
		slot:   window / time.Duration(slots),
		slots:  make([]windowSlot, slots),
	}
}

// Window reports the total span of clock time the histogram covers.
func (w *WindowHistogram) Window() time.Duration {
	if w == nil {
		return 0
	}
	return w.slot * time.Duration(len(w.slots))
}

// rotate advances the ring to the sub-window containing now, clearing
// every slot that expired on the way. The first call allocates the
// bucket arrays and anchors the ring at now. Callers read the clock
// before taking w.mu, so concurrent callers may arrive slightly out of
// order: an instant earlier than the live sub-window but inside the
// window counts in the live sub-window. Only a clock that jumped back
// further than the whole window (e.g. a VirtualClock injected after the
// first observation, whose epoch is 1970) resets the ring and
// re-anchors on the new timeline. Callers hold w.mu.
func (w *WindowHistogram) rotate(now time.Time) {
	if w.slots[0].counts == nil {
		counts := make([]int64, len(w.slots)*(len(w.bounds)+1))
		for i := range w.slots {
			w.slots[i].counts = counts[i*(len(w.bounds)+1) : (i+1)*(len(w.bounds)+1)]
		}
		w.headStart = now
		return
	}
	if now.Before(w.headStart.Add(-w.Window())) {
		for i := range w.slots {
			w.slots[i].clear()
		}
		w.headStart = now
		return
	}
	steps := int(now.Sub(w.headStart) / w.slot)
	if steps <= 0 {
		return
	}
	if steps >= len(w.slots) {
		for i := range w.slots {
			w.slots[i].clear()
		}
		w.headStart = w.headStart.Add(w.slot * time.Duration(steps))
		return
	}
	for i := 0; i < steps; i++ {
		w.head = (w.head + 1) % len(w.slots)
		w.slots[w.head].clear()
	}
	w.headStart = w.headStart.Add(w.slot * time.Duration(steps))
}

func (s *windowSlot) clear() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.count = 0
}

// Observe records one duration, finished at now, into the live
// sub-window.
func (w *WindowHistogram) Observe(now time.Time, d time.Duration) {
	if w == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := bucketIndex(w.bounds, d)
	w.mu.Lock()
	w.rotate(now)
	s := &w.slots[w.head]
	s.counts[i]++
	s.count++
	w.mu.Unlock()
}

// bucketIndex finds the bucket covering d (len(bounds) = overflow).
func bucketIndex(bounds []time.Duration, d time.Duration) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// merged folds every live sub-window into one counts array and
// returns it with the total count. Callers hold w.mu.
func (w *WindowHistogram) merged() ([]int64, int64) {
	counts := make([]int64, len(w.bounds)+1)
	var count int64
	for i := range w.slots {
		s := &w.slots[i]
		for j, n := range s.counts {
			counts[j] += n
		}
		count += s.count
	}
	return counts, count
}

// Quantile estimates the q-th quantile over the window ending at now,
// with the same interpolation rules as Histogram.Quantile.
func (w *WindowHistogram) Quantile(now time.Time, q float64) time.Duration {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(now)
	counts, _ := w.merged()
	return quantileFromCounts(w.bounds, counts, q)
}

// AboveThreshold reports how many of the window's observations exceeded
// the given threshold, alongside the window total — the good/bad split
// SLO burn rates are computed from. Thresholds that sit exactly on a
// bucket bound are exact; others count whole buckets above the covering
// bound (the conservative direction: a mid-bucket threshold never
// under-reports violations from higher buckets).
func (w *WindowHistogram) AboveThreshold(now time.Time, threshold time.Duration) (above, total int64) {
	if w == nil {
		return 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(now)
	counts, count := w.merged()
	cut := bucketIndex(w.bounds, threshold) // buckets <= cut are within threshold's covering bound
	for i := cut + 1; i < len(counts); i++ {
		above += counts[i]
	}
	return above, count
}
