package obs

import (
	"fmt"
	"strings"
	"sync"
)

// Action classifies what happened to a candidate at some pipeline stage.
type Action string

// The decision vocabulary. "pruned" candidates never executed (cost
// above the suggestion threshold, compile failure); "dropped" ones
// executed and failed; "empty" ones executed and produced no rows;
// "degraded" ones survived with partial results; "suggested" ones made
// the list at some rank; "outranked" ones lost to an accepted
// alternative; "accepted"/"rejected" record explicit user feedback.
const (
	ActionPruned    Action = "pruned"
	ActionDropped   Action = "dropped"
	ActionEmpty     Action = "empty"
	ActionDegraded  Action = "degraded"
	ActionSuggested Action = "suggested"
	ActionOutranked Action = "outranked"
	ActionAccepted  Action = "accepted"
	ActionRejected  Action = "rejected"
)

// Decision is one entry of the decision log: why a candidate query was
// pruned, degraded, outranked, or kept, at which stage, with the cost
// and rank that drove the call.
type Decision struct {
	Seq       int     `json:"seq"`
	Session   string  `json:"session,omitempty"` // owning session handle ("" single-workspace)
	Stage     string  `json:"stage"`             // e.g. "suggest.columns", "search.steiner"
	Candidate string  `json:"candidate"`         // edge label / target node
	Action    Action  `json:"action"`
	Reason    string  `json:"reason,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	Rank      int     `json:"rank"` // position in the ranked list; -1 if not ranked
}

// String renders the decision as a single explanation line.
func (d Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s: %s", d.Stage, d.Candidate, d.Action)
	if d.Rank >= 0 {
		fmt.Fprintf(&b, " (rank %d)", d.Rank)
	}
	if d.Cost != 0 {
		fmt.Fprintf(&b, " (cost %.2f)", d.Cost)
	}
	if d.Reason != "" {
		fmt.Fprintf(&b, " — %s", d.Reason)
	}
	return b.String()
}

// maxDecisions bounds the log: a long session keeps its most recent
// explanations.
const maxDecisions = 4096

// DecisionLog records candidate decisions across the session in a
// bounded ring, and publishes each on the stream the log is pointed at
// (the flight recorder's timeline). Safe for concurrent use (the
// parallel candidate executor records into one shared log). A nil
// *DecisionLog is inert.
type DecisionLog struct {
	ring   *Ring[*Decision]
	mu     sync.Mutex
	stream *Stream
}

// NewDecisionLog creates an empty log.
func NewDecisionLog() *DecisionLog { return &DecisionLog{ring: NewRing[*Decision](maxDecisions)} }

// SetStream points the log at the stream its decisions are published
// on; decisions are stamped with the stream handle's session. nil stops
// publishing.
func (l *DecisionLog) SetStream(s *Stream) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.stream = s
	l.mu.Unlock()
}

// Record appends a decision, stamping its sequence number and the
// stream's session (unless the decision already carries one), and
// publishes it.
func (l *DecisionLog) Record(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	stream := l.stream
	if d.Session == "" {
		d.Session = stream.Session()
	}
	// Sequence numbers are 1-based; under l.mu they match push order.
	d.Seq = int(l.ring.next) + 1
	l.ring.Push(&d)
	l.mu.Unlock()
	stream.Publish(Event{Kind: KindDecision, Decision: &d})
}

// Decisions returns a copy of the log, oldest first.
func (l *DecisionLog) Decisions() []Decision {
	if l == nil {
		return nil
	}
	ps := l.ring.Snapshot()
	ds := make([]Decision, len(ps))
	for i, p := range ps {
		ds[i] = *p
	}
	return ds
}

// For returns the decisions whose candidate contains the given
// substring (case-insensitive), oldest first — the ":why <candidate>"
// lookup.
func (l *DecisionLog) For(candidate string) []Decision {
	if l == nil {
		return nil
	}
	needle := strings.ToLower(candidate)
	ps := l.ring.Snapshot()
	var out []Decision
	for _, p := range ps {
		if strings.Contains(strings.ToLower(p.Candidate), needle) {
			out = append(out, *p)
		}
	}
	return out
}

// Len reports the number of retained decisions.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	return l.ring.Len()
}

// Reset clears the log.
func (l *DecisionLog) Reset() {
	if l == nil {
		return
	}
	l.ring.Reset()
}
