package mira

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultsAndCost(t *testing.T) {
	l := New(1.0)
	if l.Weight("e1") != 1.0 {
		t.Error("unseen feature should have default weight")
	}
	if c := l.Cost([]string{"a", "b", "c"}); c != 3 {
		t.Errorf("cost = %f", c)
	}
	if l.Cost(nil) != 0 {
		t.Error("empty query costs 0")
	}
}

func TestSingleUpdateFixesRanking(t *testing.T) {
	// The §5 claim at its smallest: one item of feedback re-ranks a
	// single query pair.
	l := New(1.0)
	good := []string{"e1", "e2"} // cost 2
	bad := []string{"e3"}        // cost 1 — currently ranked better
	c := Constraint{Preferred: good, Other: bad}
	if !l.Violated(c) {
		t.Fatal("constraint should start violated")
	}
	if !l.Update(c) {
		t.Fatal("update should fire")
	}
	if l.Violated(c) {
		t.Error("one update should satisfy the constraint")
	}
	if l.Cost(good)+DefaultMargin > l.Cost(bad)+1e-9 {
		t.Errorf("margin not achieved: good=%f bad=%f", l.Cost(good), l.Cost(bad))
	}
	// Second update is passive.
	if l.Update(c) {
		t.Error("satisfied constraint should not update")
	}
}

func TestUpdateOnlyTouchesDifferingFeatures(t *testing.T) {
	l := New(1.0)
	shared := "shared-edge"
	c := Constraint{
		Preferred: []string{shared, "good-edge"},
		Other:     []string{shared, "bad-edge"},
	}
	l.Update(c)
	if l.Weight(shared) != 1.0 {
		t.Errorf("shared feature moved: %f", l.Weight(shared))
	}
	if l.Weight("good-edge") >= 1.0 {
		t.Error("preferred-only feature should get cheaper")
	}
	if l.Weight("bad-edge") <= 1.0 {
		t.Error("dispreferred-only feature should get dearer")
	}
}

func TestIdenticalQueriesCannotSeparate(t *testing.T) {
	l := New(1.0)
	c := Constraint{Preferred: []string{"x"}, Other: []string{"x"}}
	if l.Update(c) {
		t.Error("identical feature multisets should be a no-op")
	}
}

func TestWeightFloor(t *testing.T) {
	l := New(0.05)
	// Repeatedly push a feature downward.
	for i := 0; i < 50; i++ {
		l.Update(Constraint{Preferred: []string{"cheap"}, Other: []string{"exp"}, Margin: 10})
	}
	if l.Weight("cheap") < l.MinFloor {
		t.Errorf("weight sank below floor: %f", l.Weight("cheap"))
	}
}

func TestAggressivenessCap(t *testing.T) {
	l := New(1.0)
	l.C = 0.01
	l.Update(Constraint{Preferred: []string{"a"}, Other: []string{"b"}, Margin: 100})
	// With τ capped at 0.01, weights move at most 0.01.
	if l.Weight("b") > 1.02 {
		t.Errorf("cap ignored: %f", l.Weight("b"))
	}
}

func TestUpdateBatchConverges(t *testing.T) {
	l := New(1.0)
	cs := []Constraint{
		{Preferred: []string{"a", "b"}, Other: []string{"c"}},
		{Preferred: []string{"a"}, Other: []string{"d", "e"}},
		{Preferred: []string{"b"}, Other: []string{"c", "d"}},
	}
	n := l.UpdateBatch(cs, 100)
	if n == 0 {
		t.Fatal("batch should apply updates")
	}
	for i, c := range cs {
		if l.Violated(c) {
			t.Errorf("constraint %d still violated after batch", i)
		}
	}
	if l.UpdateBatch(cs, 100) != 0 {
		t.Error("second batch should be a no-op")
	}
}

func TestUpdateSatisfiesConstraintProperty(t *testing.T) {
	// Property: after Update, any separable constraint with default margin
	// is satisfied (when the floor doesn't bind).
	f := func(goodRaw, badRaw []uint8) bool {
		l := New(1.0)
		l.MinFloor = -1e9 // disable the floor for the pure PA property
		var good, bad []string
		for _, g := range goodRaw {
			good = append(good, string(rune('a'+g%20)))
		}
		for _, b := range badRaw {
			bad = append(bad, string(rune('a'+b%20)))
		}
		c := Constraint{Preferred: good, Other: bad}
		changed := l.Update(c)
		if !changed {
			return true // not separable or already satisfied
		}
		return !l.Violated(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotAndString(t *testing.T) {
	l := New(1.0)
	l.Update(Constraint{Preferred: []string{"a"}, Other: []string{"b"}})
	snap := l.Snapshot()
	if len(snap) != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	snap["a"] = 99
	if l.Weight("a") == 99 {
		t.Error("snapshot should be a copy")
	}
	s := l.String()
	if !strings.Contains(s, "a=") || !strings.Contains(s, "b=") {
		t.Errorf("String = %s", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	l := New(1.0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := string(rune('a' + i))
			l.Update(Constraint{Preferred: []string{f}, Other: []string{f + "x"}})
			l.Cost([]string{f})
			l.Snapshot()
		}(i)
	}
	wg.Wait()
}

func TestRepeatedFeatureCounts(t *testing.T) {
	// A feature used twice in one query counts twice in φ.
	l := New(1.0)
	c := Constraint{Preferred: []string{"a"}, Other: []string{"a", "a"}}
	// cost(Other)-cost(Preferred) = 1 ≥ margin 0.5 already: passive.
	if l.Update(c) {
		t.Error("already satisfied")
	}
	// Satisfying this one needs w(a) ≤ -0.25; with the default floor it
	// stays clamped (update fires but cannot fully separate)...
	c2 := Constraint{Preferred: []string{"a", "a", "a"}, Other: []string{"a"}, Margin: 0.5}
	if !l.Update(c2) {
		t.Fatal("should update")
	}
	if !l.Violated(c2) {
		t.Error("floor should prevent full separation here")
	}
	// ...and with the floor lifted, the same constraint becomes satisfiable.
	l2 := New(1.0)
	l2.MinFloor = -10
	if !l2.Update(c2) {
		t.Fatal("should update")
	}
	if l2.Violated(c2) {
		t.Error("still violated without floor")
	}
}

// TestClampedNoProgressReturnsFalse is a regression test: Update used to
// return true after the MinFloor clamp even when the clamp absorbed the
// whole step, so UpdateBatch saw phantom progress and burned its entire
// epoch budget re-applying a no-op.
func TestClampedNoProgressReturnsFalse(t *testing.T) {
	l := New(1.0)
	// Satisfying this needs w(e) ≤ −0.5, below the floor: unsatisfiable.
	c := Constraint{Preferred: []string{"e"}, Margin: 0.5}
	if !l.Update(c) {
		t.Fatal("first update moves w(e) down to the floor: real progress")
	}
	if l.Update(c) {
		t.Error("second update is fully clamped: no progress, must return false")
	}
}

func TestUpdateBatchConvergesOnFloorBoundConstraint(t *testing.T) {
	l := New(1.0)
	cs := []Constraint{{Preferred: []string{"e"}, Margin: 0.5}}
	updates := l.UpdateBatch(cs, 1000)
	if updates > 2 {
		t.Errorf("floor-bound constraint should converge immediately, got %d updates", updates)
	}
	// A clamped-but-progressing mix still converges to satisfied: the
	// other feature carries the separation the floored one cannot.
	l2 := New(1.0)
	cs2 := []Constraint{{Preferred: []string{"a"}, Other: []string{"b"}, Margin: 0.5}}
	l2.UpdateBatch(cs2, 1000)
	if l2.Violated(cs2[0]) {
		t.Error("satisfiable constraint should end satisfied")
	}
}

// TestUpdateIsDeterministic pins the summation order: with weights whose
// float sum depends on the order it is taken in, every fresh learner
// must land on bit-identical weights.
func TestUpdateIsDeterministic(t *testing.T) {
	run := func() map[string]float64 {
		l := New(1.0)
		l.SetWeight("big", 1e16)
		l.SetWeight("one", 1)
		l.SetWeight("neg", -1e16)
		l.Update(Constraint{Preferred: []string{"p"}, Other: []string{"big", "one", "neg"}})
		return l.Snapshot()
	}
	want := run()
	for i := 0; i < 100; i++ {
		got := run()
		for f, w := range want {
			if math.Float64bits(got[f]) != math.Float64bits(w) {
				t.Fatalf("learner %d: weight %s = %v, first learner %v", i, f, got[f], w)
			}
		}
	}
}
