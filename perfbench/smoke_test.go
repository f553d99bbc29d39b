package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, untraced and traced, and
// requires correct outputs and every reported metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := run(options{workload: name, seed: 7, seconds: 1, traced: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Attempted == 0 || !rep.ok() {
				t.Fatalf("%s traced=%v: %d attempted, %d failed, %d incorrect: %v", name, traced, rep.Attempted, rep.Failed, rep.Incorrect, rep.Problems)
			}
			if _, ok, err := resultLine([]*report{rep}); err != nil || !ok {
				t.Fatalf("%s traced=%v: result line: ok=%v err=%v", name, traced, ok, err)
			}
			if traced {
				if rep.PerLayer["trace.unaccounted_frac"] <= 0 || rep.SpanCount == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
				continue
			}
			for _, m := range gated {
				if rep.EndToEnd[m] <= 0 {
					t.Errorf("%s: %s = %v", name, m, rep.EndToEnd[m])
				}
			}
		}
	}
}

// emptyRanking is a workload whose every fourth op gets an empty
// ranking back, as a program change that made searches return nothing
// would.
type emptyRanking struct{ n int }

func (w *emptyRanking) clients() int { return 1 }
func (w *emptyRanking) setup() error { return nil }
func (w *emptyRanking) op(c *client) error {
	time.Sleep(time.Millisecond)
	c.sample("rerank", time.Millisecond)
	w.n++
	if w.n%4 == 0 {
		return checkTop1(nil, chainName([]string{"f1", "f2"}))
	}
	return nil
}
func (w *emptyRanking) verify() []error              { return nil }
func (w *emptyRanking) gauges() map[string]float64   { return nil }
func (w *emptyRanking) counters() map[string]float64 { return nil }
func (w *emptyRanking) close()                       {}

// TestFailedOpsFailTheRun requires an op that returns nothing to make
// the run incorrect on every workload.
func TestFailedOpsFailTheRun(t *testing.T) {
	for _, name := range workloadNames {
		rep, err := measure(options{workload: name, seed: 1, seconds: 1, out: t.TempDir()}, &emptyRanking{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed == 0 {
			t.Fatalf("%s: no op failed", name)
		}
		_, ok, err := resultLine([]*report{rep})
		if err != nil {
			t.Fatalf("%s: result line: %v", name, err)
		}
		if ok {
			t.Errorf("%s: %d of %d ops failed, result ok=%v", name, rep.Failed, rep.Attempted, ok)
		}
	}
}
