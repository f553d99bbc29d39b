package obs

import "sync"

// Ring is the one bounded buffer of the observability layer: the event
// stream's recent past, the decision log, and the flight recorder's
// metric snapshots and incidents all live in one. It keeps the most
// recent Cap entries, numbering every push with a sequence number
// (0, 1, 2, ...). Once full, a push overwrites the oldest entry in
// place: it copies no retained entry and allocates nothing. The backing
// array grows on demand up to Cap, so a ring that never fills never
// pays for its full capacity.
//
// One-off readers copy the retained entries with Snapshot. A live
// follower resumes from a cursor with Since, which also hands back a
// channel that closes on the next push; the channel exists only once a
// follower has asked for it, so pushes to a ring nobody follows close
// nothing. Safe for concurrent use; a nil *Ring is inert.
type Ring[T any] struct {
	mu      sync.Mutex
	cap     int
	buf     []T
	head    int   // index of the oldest entry once buf is full
	next    int64 // sequence number of the next push
	wake    chan struct{}
	dropped int64 // entries lagging readers missed
}

// NewRing creates a ring retaining the most recent capacity entries
// (at least one).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{cap: capacity}
}

// Push appends v, overwriting the oldest entry when the ring is full,
// wakes every waiting reader, and returns v's sequence number.
func (r *Ring[T]) Push(v T) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.head] = v
		r.head = (r.head + 1) % r.cap
	}
	seq := r.next
	r.next++
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
	r.mu.Unlock()
	return seq
}

// Snapshot returns a copy of every retained entry, oldest first.
func (r *Ring[T]) Snapshot() []T {
	entries, _, _ := r.since(0, false)
	return entries
}

// Since returns a copy of every retained entry with sequence number >=
// cursor, oldest first, the cursor to resume from, and a channel that
// closes on the next Push. Entry i of the result has sequence number
// next-len(entries)+i. A reader whose cursor fell behind the ring
// resumes at the oldest retained entry and the entries it missed are
// counted in Dropped; cursor 0 is a fresh reader, never a lagging one.
// A nil ring returns a nil wake channel: nothing will ever arrive.
func (r *Ring[T]) Since(cursor int64) (entries []T, next int64, wake <-chan struct{}) {
	return r.since(cursor, true)
}

// since is Since for a follower and Snapshot (cursor 0, no wake
// channel) for a one-off reader.
func (r *Ring[T]) since(cursor int64, follow bool) (entries []T, next int64, wake <-chan struct{}) {
	if r == nil {
		return nil, 0, nil // nothing is, or ever will be, retained
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.next - int64(len(r.buf))
	if cursor < first {
		if cursor > 0 {
			r.dropped += first - cursor
		}
		cursor = first
	}
	if n := r.next - cursor; n > 0 {
		entries = make([]T, 0, n)
		skip := int(cursor - first)
		// Oldest-first order is buf[head:] then buf[:head].
		for i := skip; i < len(r.buf); i++ {
			entries = append(entries, r.buf[(r.head+i)%len(r.buf)])
		}
	}
	if follow {
		if r.wake == nil {
			r.wake = make(chan struct{})
		}
		wake = r.wake
	}
	return entries, r.next, wake
}

// Len reports how many entries the ring retains.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped reports how many entries lagging readers have missed in
// total.
func (r *Ring[T]) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards every retained entry; sequence numbering continues.
func (r *Ring[T]) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf, r.head = nil, 0
	r.mu.Unlock()
}
