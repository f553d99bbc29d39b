package main

import (
	"runtime"
	"testing"
	"time"
)

// TestProcessCPUCountsWork requires the process CPU clock to advance by
// about the time a busy loop runs and to stand still while the process
// sleeps.
func TestProcessCPUCountsWork(t *testing.T) {
	before := processCPU()
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
	}
	busy := processCPU() - before
	if busy < 25*time.Millisecond {
		t.Errorf("a 50 ms busy loop advanced the process CPU clock by %v", busy)
	}
	before = processCPU()
	time.Sleep(50 * time.Millisecond)
	if idle := processCPU() - before; idle > 25*time.Millisecond {
		t.Errorf("a 50 ms sleep advanced the process CPU clock by %v", idle)
	}
}

// TestLiveHeapLeavesOutSamples requires the live heap a run reports not
// to grow with the latency samples its clients keep.
func TestLiveHeapLeavesOutSamples(t *testing.T) {
	c := quietClient()
	c.sample("rerank", time.Millisecond)
	before := liveHeapMB([]*client{c})
	for i := 0; i < 200000; i++ { // 1.6 MB of samples
		c.sample("rerank", time.Millisecond)
	}
	if grew := liveHeapMB([]*client{c}) - before; grew > 0.2 {
		t.Errorf("200000 samples grew the reported live heap by %.2f MB", grew)
	}
	runtime.KeepAlive(c)
}

func TestAtRefSpeed(t *testing.T) {
	// Calibrations of 40 and 60 ms average 50: twice the reference's 25,
	// so the work took twice as long as at the reference speed.
	if got := atRefSpeed(10, []float64{40, 60}); got != 5 {
		t.Errorf("atRefSpeed(10, [40 60]) = %v, want 5", got)
	}
	if got := atRefSpeed(10, nil); got != 0 {
		t.Errorf("atRefSpeed with no calibration = %v, want 0", got)
	}
	if d := calibrate(); d <= 0 {
		t.Errorf("calibrate() = %v", d)
	}
}
