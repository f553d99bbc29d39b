package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("median sorted its input: %v", in)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{5, 0, 0, false},    // even the median has under 10 above it
		{20, 0.5, 10, true}, // p90 would have 2 above it
		{100, 0.9, 10, true},
		{999, 0.9, 99, true}, // p99 would leave 9
		{1000, 0.99, 10, true},
		{100000, 0.9999, 10, true},
	} {
		q, beyond, ok := tailPercentile(tc.n, 10)
		if q != tc.q || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %d, %v; want %v, %d, %v", tc.n, q, beyond, ok, tc.q, tc.beyond, tc.ok)
		}
	}
}
