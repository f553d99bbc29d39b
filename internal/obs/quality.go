package obs

import "sync/atomic"

// Suggestion-feedback surfaces the quality tracker distinguishes. Every
// explicit accept/reject a user issues lands on exactly one of them:
// column completions (Figure 2's suggested Zip column), top-k connecting
// queries (Steiner mode), row auto-completions (Figure 1's highlighted
// rows), and per-tuple promote/demote feedback.
const (
	FeedbackColumns = "columns"
	FeedbackQueries = "queries"
	FeedbackRows    = "rows"
	FeedbackTuples  = "tuples"
)

// feedbackKinds fixes the kind→index mapping for the tracker's atomic
// arrays (and the iteration order of every rendered breakdown).
var feedbackKinds = [...]string{FeedbackColumns, FeedbackQueries, FeedbackRows, FeedbackTuples}

func kindIndex(kind string) int {
	for i, k := range feedbackKinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// QualityRankBuckets is the size of the rank-of-accepted histogram:
// ranks 0, 1, 2, and an overflow bucket for rank ≥ 3 (suggestion lists
// are top-3/top-4, so deeper ranks are one tail bucket).
const QualityRankBuckets = 4

// QualityEvent is one observation on the suggestion-quality stream: an
// accept (with the rank the accepted suggestion held and how many
// suggestion refreshes elapsed since the previous accept), a reject, or
// an undo of a previously accepted suggestion.
type QualityEvent struct {
	Kind     string // FeedbackColumns | FeedbackQueries | FeedbackRows | FeedbackTuples
	Accepted bool   // accept vs reject (ignored when Undo)
	Undo     bool   // the event reverses a prior accept
	Rank     int    // rank of the accepted suggestion; -1 when not ranked
	Rounds   int    // suggestion refreshes since the previous accept; 0 when unknown
}

// QualityTracker accumulates live suggestion-quality telemetry —
// rolling acceptance rate, rank-of-accepted histogram, feedback
// rounds-to-accept — from the workspace's accept/reject/undo paths.
// All fields are atomic: the single-driver workspace writes, concurrent
// scrapers snapshot. A nil *QualityTracker is inert.
type QualityTracker struct {
	accepts   [len(feedbackKinds)]atomic.Int64
	rejects   [len(feedbackKinds)]atomic.Int64
	undone    atomic.Int64
	ranks     [QualityRankBuckets]atomic.Int64
	rankSum   atomic.Int64
	rankN     atomic.Int64
	roundsSum atomic.Int64
	roundsN   atomic.Int64
}

// NewQualityTracker creates an empty tracker.
func NewQualityTracker() *QualityTracker { return &QualityTracker{} }

// Observe records one event. Events with an unknown Kind are dropped.
func (t *QualityTracker) Observe(ev QualityEvent) {
	if t == nil {
		return
	}
	i := kindIndex(ev.Kind)
	if i < 0 {
		return
	}
	if ev.Undo {
		t.undone.Add(1)
		return
	}
	if !ev.Accepted {
		t.rejects[i].Add(1)
		return
	}
	t.accepts[i].Add(1)
	if ev.Rank >= 0 {
		b := ev.Rank
		if b >= QualityRankBuckets {
			b = QualityRankBuckets - 1
		}
		t.ranks[b].Add(1)
		t.rankSum.Add(int64(ev.Rank))
		t.rankN.Add(1)
	}
	if ev.Rounds > 0 {
		t.roundsSum.Add(int64(ev.Rounds))
		t.roundsN.Add(1)
	}
}

// QualityStats is a point-in-time, JSON-serializable copy of a tracker
// — the /quality endpoint's payload and the persisted form that carries
// a session's quality counters across evict/reload.
type QualityStats struct {
	Accepts          map[string]int64 `json:"accepts,omitempty"`
	Rejects          map[string]int64 `json:"rejects,omitempty"`
	TotalAccepts     int64            `json:"total_accepts"`
	TotalRejects     int64            `json:"total_rejects"`
	AcceptanceRate   float64          `json:"acceptance_rate"`
	AcceptedRank     []int64          `json:"accepted_rank_histogram"` // index = rank; last bucket is rank ≥ 3
	MeanAcceptedRank float64          `json:"mean_accepted_rank"`
	RankSum          int64            `json:"rank_sum,omitempty"`
	RankedAccepts    int64            `json:"ranked_accepts"`
	MeanRounds       float64          `json:"mean_rounds_to_accept"`
	RoundsSum        int64            `json:"rounds_sum,omitempty"`
	RoundsObserved   int64            `json:"rounds_observed"`
	AcceptsUndone    int64            `json:"accepts_undone"`
}

// Snapshot copies the tracker.
func (t *QualityTracker) Snapshot() QualityStats {
	st := QualityStats{
		Accepts:      map[string]int64{},
		Rejects:      map[string]int64{},
		AcceptedRank: make([]int64, QualityRankBuckets),
	}
	if t == nil {
		return st
	}
	for i, k := range feedbackKinds {
		a, r := t.accepts[i].Load(), t.rejects[i].Load()
		st.Accepts[k] = a
		st.Rejects[k] = r
		st.TotalAccepts += a
		st.TotalRejects += r
	}
	if total := st.TotalAccepts + st.TotalRejects; total > 0 {
		st.AcceptanceRate = float64(st.TotalAccepts) / float64(total)
	}
	for i := range t.ranks {
		st.AcceptedRank[i] = t.ranks[i].Load()
	}
	st.RankSum = t.rankSum.Load()
	st.RankedAccepts = t.rankN.Load()
	if st.RankedAccepts > 0 {
		st.MeanAcceptedRank = float64(st.RankSum) / float64(st.RankedAccepts)
	}
	st.RoundsSum = t.roundsSum.Load()
	st.RoundsObserved = t.roundsN.Load()
	if st.RoundsObserved > 0 {
		st.MeanRounds = float64(st.RoundsSum) / float64(st.RoundsObserved)
	}
	st.AcceptsUndone = t.undone.Load()
	return st
}

// Restore sets the tracker to a previously snapshotted state — how a
// reloaded session's quality counters stay continuous across an
// evict/reload cycle (like the plan-cache counters in persist).
func (t *QualityTracker) Restore(st QualityStats) {
	if t == nil {
		return
	}
	for i, k := range feedbackKinds {
		t.accepts[i].Store(st.Accepts[k])
		t.rejects[i].Store(st.Rejects[k])
	}
	for i := range t.ranks {
		var n int64
		if i < len(st.AcceptedRank) {
			n = st.AcceptedRank[i]
		}
		t.ranks[i].Store(n)
	}
	t.rankSum.Store(st.RankSum)
	t.rankN.Store(st.RankedAccepts)
	t.roundsSum.Store(st.RoundsSum)
	t.roundsN.Store(st.RoundsObserved)
	t.undone.Store(st.AcceptsUndone)
}

// rankBucketNames are the metric suffixes of the rank histogram's
// buckets. Plain per-bucket counters (not an exposition histogram) keep
// the /metrics families lint-clean through the ordinary counter fold.
var rankBucketNames = [QualityRankBuckets]string{
	"quality.accepted_rank_0",
	"quality.accepted_rank_1",
	"quality.accepted_rank_2",
	"quality.accepted_rank_3plus",
}

// Fold adds the stats to a metrics snapshot as "quality.*" counters and
// gauges, so /metrics, :metrics, and scpbench -json all carry the
// quality families with zero extra exposition plumbing.
func (st QualityStats) Fold(snap Snapshot) {
	snap.Counters["quality.accepts"] = st.TotalAccepts
	snap.Counters["quality.rejects"] = st.TotalRejects
	snap.Counters["quality.accepts_undone"] = st.AcceptsUndone
	for _, k := range feedbackKinds {
		snap.Counters["quality."+k+"_accepted"] = st.Accepts[k]
		snap.Counters["quality."+k+"_rejected"] = st.Rejects[k]
	}
	for i, name := range rankBucketNames {
		snap.Counters[name] = st.AcceptedRank[i]
	}
	snap.Gauges["quality.acceptance_rate"] = st.AcceptanceRate
	snap.Gauges["quality.mean_accepted_rank"] = st.MeanAcceptedRank
	snap.Gauges["quality.mean_rounds_to_accept"] = st.MeanRounds
}
