package workspace

import (
	"fmt"
	"strings"

	"copycat/internal/obs"
)

// Undo-checkpoint operation labels. Accept operations use the
// "accept.<kind>" form so Undo can attribute a reversed accept to its
// feedback surface in the quality tracker.
const (
	opPaste        = "paste"
	opEdit         = "edit"
	opTransform    = "transform"
	opChoose       = "choose"
	opAcceptRows   = "accept." + obs.FeedbackRows
	opAcceptQuery  = "accept." + obs.FeedbackQueries
	opAcceptColumn = "accept." + obs.FeedbackColumns
)

// qualityEvent publishes one suggestion-feedback observation on the
// stream, which folds it into the workspace tracker (and on a session
// host into the host-wide and per-tenant trackers), then explains it in
// the decision log's "quality" stage (the `:why quality` surface).
func (w *Workspace) qualityEvent(ev obs.QualityEvent) {
	w.stream.Publish(obs.Event{Kind: obs.KindQuality, Quality: &ev})
	if w.Decisions == nil {
		return
	}
	st := w.Quality.Snapshot()
	d := obs.Decision{
		Stage:     "quality",
		Candidate: "quality." + ev.Kind,
		Rank:      ev.Rank,
		Reason: fmt.Sprintf("rolling acceptance %.2f over %d accepts / %d rejects",
			st.AcceptanceRate, st.TotalAccepts, st.TotalRejects),
	}
	switch {
	case ev.Undo:
		d.Action = obs.ActionRejected
		d.Reason = "accept undone; " + d.Reason
	case ev.Accepted:
		d.Action = obs.ActionAccepted
		if ev.Rounds > 0 {
			d.Reason = fmt.Sprintf("accepted at rank %d after %d feedback rounds; %s", ev.Rank, ev.Rounds, d.Reason)
		}
	default:
		d.Action = obs.ActionRejected
	}
	w.Decisions.Record(d)
}

// qualityAccept records an accepted suggestion at the given rank; the
// rounds-to-accept counter (suggestion refreshes since the previous
// accept) is consumed and reset.
func (w *Workspace) qualityAccept(kind string, rank int) {
	rounds := w.roundsSinceAccept
	w.roundsSinceAccept = 0
	w.qualityEvent(obs.QualityEvent{Kind: kind, Accepted: true, Rank: rank, Rounds: rounds})
}

// qualityReject records a rejected suggestion.
func (w *Workspace) qualityReject(kind string) {
	w.qualityEvent(obs.QualityEvent{Kind: kind, Rank: -1})
}

// qualityUndo records that an accept-type operation was undone, when
// the popped checkpoint carries an "accept.<kind>" label.
func (w *Workspace) qualityUndo(op string) {
	kind, ok := strings.CutPrefix(op, "accept.")
	if !ok {
		return
	}
	w.qualityEvent(obs.QualityEvent{Kind: kind, Undo: true, Rank: -1})
}

// qualityRound counts one suggestion refresh toward the next accept's
// rounds-to-accept.
func (w *Workspace) qualityRound() { w.roundsSinceAccept++ }

// QualityStats snapshots the workspace's live suggestion-quality
// telemetry.
func (w *Workspace) QualityStats() obs.QualityStats { return w.Quality.Snapshot() }

// RenderQuality renders quality stats as an aligned human-readable
// report (the REPL's :quality command).
func RenderQuality(st obs.QualityStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "suggestion quality: %d accepts / %d rejects (acceptance rate %.3f)\n",
		st.TotalAccepts, st.TotalRejects, st.AcceptanceRate)
	fmt.Fprintf(&b, "  by surface             columns %d/%d  queries %d/%d  rows %d/%d  tuples %d/%d  (accepted/rejected)\n",
		st.Accepts[obs.FeedbackColumns], st.Rejects[obs.FeedbackColumns],
		st.Accepts[obs.FeedbackQueries], st.Rejects[obs.FeedbackQueries],
		st.Accepts[obs.FeedbackRows], st.Rejects[obs.FeedbackRows],
		st.Accepts[obs.FeedbackTuples], st.Rejects[obs.FeedbackTuples])
	hist := make([]string, 0, len(st.AcceptedRank))
	for i, n := range st.AcceptedRank {
		label := fmt.Sprintf("%d", i)
		if i == len(st.AcceptedRank)-1 {
			label += "+"
		}
		hist = append(hist, fmt.Sprintf("rank%s=%d", label, n))
	}
	fmt.Fprintf(&b, "  rank of accepted       mean %.3f over %d ranked accepts  [%s]\n",
		st.MeanAcceptedRank, st.RankedAccepts, strings.Join(hist, " "))
	fmt.Fprintf(&b, "  rounds to accept       mean %.3f over %d observed accepts\n",
		st.MeanRounds, st.RoundsObserved)
	fmt.Fprintf(&b, "  accepts undone         %d\n", st.AcceptsUndone)
	return b.String()
}
