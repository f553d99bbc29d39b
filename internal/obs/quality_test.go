package obs

import (
	"strings"
	"testing"
)

func TestQualityTrackerSnapshot(t *testing.T) {
	q := NewQualityTracker()
	q.Observe(QualityEvent{Kind: FeedbackColumns, Accepted: true, Rank: 0, Rounds: 2})
	q.Observe(QualityEvent{Kind: FeedbackQueries, Accepted: true, Rank: 1, Rounds: 0}) // rounds unknown: not in the rounds mean
	q.Observe(QualityEvent{Kind: FeedbackRows, Accepted: true, Rank: 5, Rounds: 1})    // deep rank lands in the overflow bucket
	q.Observe(QualityEvent{Kind: FeedbackColumns, Rank: -1})
	q.Observe(QualityEvent{Kind: FeedbackTuples, Rank: -1})
	q.Observe(QualityEvent{Kind: FeedbackColumns, Undo: true, Rank: -1})
	q.Observe(QualityEvent{Kind: "bogus", Accepted: true}) // unknown kind dropped

	st := q.Snapshot()
	if st.TotalAccepts != 3 || st.TotalRejects != 2 {
		t.Fatalf("totals = %d/%d, want 3/2", st.TotalAccepts, st.TotalRejects)
	}
	if want := 3.0 / 5.0; st.AcceptanceRate != want {
		t.Errorf("acceptance rate = %v, want %v", st.AcceptanceRate, want)
	}
	if st.Accepts[FeedbackColumns] != 1 || st.Rejects[FeedbackTuples] != 1 {
		t.Errorf("per-kind counts wrong: %+v", st)
	}
	if st.AcceptedRank[0] != 1 || st.AcceptedRank[1] != 1 || st.AcceptedRank[3] != 1 {
		t.Errorf("rank histogram = %v, want [1 1 0 1]", st.AcceptedRank)
	}
	if want := (0.0 + 1 + 5) / 3; st.MeanAcceptedRank != want {
		t.Errorf("mean rank = %v, want %v", st.MeanAcceptedRank, want)
	}
	// Only the two accepts with known rounds contribute.
	if st.RoundsObserved != 2 || st.MeanRounds != 1.5 {
		t.Errorf("rounds = %d mean %v, want 2 mean 1.5", st.RoundsObserved, st.MeanRounds)
	}
	if st.AcceptsUndone != 1 {
		t.Errorf("undone = %d, want 1", st.AcceptsUndone)
	}
}

// TestQualityTrackerRestoreRoundTrip: Restore must reproduce the
// snapshot exactly — including the sums behind the means — so a
// session's quality counters stay continuous across evict/reload.
func TestQualityTrackerRestoreRoundTrip(t *testing.T) {
	q := NewQualityTracker()
	q.Observe(QualityEvent{Kind: FeedbackColumns, Accepted: true, Rank: 2, Rounds: 3})
	q.Observe(QualityEvent{Kind: FeedbackRows, Accepted: true, Rank: 0, Rounds: 1})
	q.Observe(QualityEvent{Kind: FeedbackQueries, Rank: -1})
	q.Observe(QualityEvent{Kind: FeedbackRows, Undo: true, Rank: -1})
	before := q.Snapshot()

	q2 := NewQualityTracker()
	q2.Restore(before)
	after := q2.Snapshot()
	if before.TotalAccepts != after.TotalAccepts ||
		before.MeanAcceptedRank != after.MeanAcceptedRank ||
		before.MeanRounds != after.MeanRounds ||
		before.AcceptsUndone != after.AcceptsUndone {
		t.Fatalf("restore diverged:\nbefore %+v\nafter  %+v", before, after)
	}
	// Restored counters keep accumulating correctly.
	q2.Observe(QualityEvent{Kind: FeedbackColumns, Accepted: true, Rank: 0, Rounds: 1})
	if st := q2.Snapshot(); st.TotalAccepts != before.TotalAccepts+1 {
		t.Errorf("accumulation after restore: %d, want %d", st.TotalAccepts, before.TotalAccepts+1)
	}
}

func TestQualityTrackerNilSafe(t *testing.T) {
	var q *QualityTracker
	q.Observe(QualityEvent{Kind: FeedbackColumns, Accepted: true, Rank: 0, Rounds: 0}) // must not panic
	q.Restore(QualityStats{})
	st := q.Snapshot()
	if st.TotalAccepts != 0 || st.Accepts == nil || len(st.AcceptedRank) != QualityRankBuckets {
		t.Errorf("nil tracker snapshot malformed: %+v", st)
	}
}

func TestQualityFold(t *testing.T) {
	q := NewQualityTracker()
	q.Observe(QualityEvent{Kind: FeedbackColumns, Accepted: true, Rank: 0, Rounds: 1})
	q.Observe(QualityEvent{Kind: FeedbackQueries, Accepted: true, Rank: 2, Rounds: 2})
	q.Observe(QualityEvent{Kind: FeedbackColumns, Rank: -1})
	snap := NewRegistry().Snapshot()
	q.Snapshot().Fold(snap)
	for name, want := range map[string]int64{
		"quality.accepts":          2,
		"quality.rejects":          1,
		"quality.columns_accepted": 1,
		"quality.columns_rejected": 1,
		"quality.queries_accepted": 1,
		"quality.accepted_rank_0":  1,
		"quality.accepted_rank_2":  1,
		"quality.accepts_undone":   0,
	} {
		if snap.Counters[name] != want {
			t.Errorf("counter %s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if snap.Gauges["quality.acceptance_rate"] != 2.0/3.0 {
		t.Errorf("acceptance_rate gauge = %v", snap.Gauges["quality.acceptance_rate"])
	}
	if snap.Gauges["quality.mean_rounds_to_accept"] != 1.5 {
		t.Errorf("mean_rounds gauge = %v", snap.Gauges["quality.mean_rounds_to_accept"])
	}
	// Every folded family sits under the quality.* prefix.
	for name := range snap.Counters {
		if !strings.HasPrefix(name, "quality.") {
			t.Errorf("unexpected counter %s from Fold", name)
		}
	}
}
