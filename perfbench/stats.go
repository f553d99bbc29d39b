package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of raw
// samples: the smallest sample with at least q of all samples at or
// below it. samples must be sorted ascending; an empty slice gives 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median is the 0.5 nearest-rank percentile of unsorted values.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tailLadder is the percentile ladder the report's tail column climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile picks the highest percentile on the ladder that still
// has at least minBeyond samples above it, so the reported tail rests on
// real observations; ok is false when not even the median qualifies.
func tailPercentile(n, minBeyond int) (q float64, beyond int, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		b := n - int(math.Ceil(tailLadder[i]*float64(n)-1e-9))
		if b >= minBeyond {
			return tailLadder[i], b, true
		}
	}
	return 0, 0, false
}

// latency is one end-to-end latency's raw samples in milliseconds.
type latency struct {
	ms []float64
}

func (l *latency) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

// sorted returns the samples in ascending order (sorting in place).
func (l *latency) sorted() []float64 {
	sort.Float64s(l.ms)
	return l.ms
}
