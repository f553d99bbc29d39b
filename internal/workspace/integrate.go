package workspace

import (
	"fmt"
	"sort"
	"strings"

	"copycat/internal/catalog"
	"copycat/internal/docmodel"
	"copycat/internal/intlearn"
	"copycat/internal/obs"
	"copycat/internal/provenance"
	"copycat/internal/sourcegraph"
	"copycat/internal/structlearn"
	"copycat/internal/table"
)

// pasteIntegration handles a paste whose cells combine sources: the
// system identifies which sources the values came from and proposes the
// top queries connecting them (§2.1: "it must identify which query the
// user has been trying to construct by pasting data from two sources into
// the same table"; §4.2's Steiner mode).
func (w *Workspace) pasteIntegration(sel docmodel.Selection) error {
	t := w.ActiveTab()
	// A paste whose rows fit the tab's arity and come from a single new
	// source expresses a union (§2.1); one combining values from several
	// known sources expresses a join.
	unionShaped := sel.Doc != nil && len(t.Schema) > 0 &&
		len(sel.Cells) > 0 && len(sel.Cells[0]) == len(t.Schema)
	// Literal cells land in the tab (user data is never lost).
	if err := w.pasteLiteral(sel); err != nil {
		return err
	}
	terminals := w.FindSourcesOfValues(sel.Flat())
	if len(terminals) >= 2 {
		ec, cancel := w.execCtx("search.queries")
		qs, err := w.Int.TopQueriesCtx(ec, terminals, 3)
		cancel()
		if err != nil {
			return err
		}
		w.pendingQueries = qs
		w.queryTerminals = terminals
		w.qualityRound()
		w.annotateActiveTab()
		return nil
	}
	if unionShaped {
		// Spawn the background import of the pasted source (§2.1: "the
		// SCP system may spawn off a background task to import the source
		// of that pasted data") and offer its generalization as row
		// auto-completions — the union suggestion.
		if lrn, err := structlearn.NewLearner(sel); err == nil {
			w.structLearners[t.Name] = lrn
			w.refreshRowSuggestions()
			w.annotateActiveTab()
			return nil
		}
	}
	// Single-source paste with no union shape: column completions may
	// still apply.
	w.RefreshColumnSuggestions()
	return nil
}

// FindSourcesOfValues returns the catalog sources containing each of the
// given values, sorted — the "which sources did this tuple come from"
// step of the Steiner mode.
func (w *Workspace) FindSourcesOfValues(values []string) []string {
	found := map[string]bool{}
	for _, src := range w.Cat.All() {
		if src.Kind != catalog.KindRelation || src.Rel == nil {
			continue
		}
		for _, v := range values {
			if relContains(src.Rel, v) {
				found[src.Name] = true
				break
			}
		}
	}
	out := make([]string, 0, len(found))
	for n := range found {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func relContains(rel *table.Relation, v string) bool {
	want := strings.Join(strings.Fields(v), " ")
	for _, row := range rel.Rows {
		for _, cell := range row {
			if strings.Join(strings.Fields(cell.Text()), " ") == want {
				return true
			}
		}
	}
	return false
}

// PendingQueries lists the current top-query proposals (row explanation
// mode), best first.
func (w *Workspace) PendingQueries() []*intlearn.Query { return w.pendingQueries }

// RefreshQuerySuggestions re-runs the top-query search for the sources
// behind the last integration paste and replaces the pending proposals.
// On large graphs the tiered solver answers the first search with the
// SPCSH heuristic while an exact refinement runs in the background;
// polling this surfaces the refined ranking once it lands in the plan
// cache. It is a no-op (returning the current proposals) when no
// integration paste is outstanding or a query was already accepted.
func (w *Workspace) RefreshQuerySuggestions() ([]*intlearn.Query, error) {
	if len(w.queryTerminals) == 0 {
		return w.pendingQueries, nil
	}
	ec, cancel := w.execCtx("search.queries")
	qs, err := w.Int.TopQueriesCtx(ec, w.queryTerminals, 3)
	cancel()
	if err != nil {
		return w.pendingQueries, err
	}
	w.pendingQueries = qs
	w.annotateActiveTab()
	return w.pendingQueries, nil
}

// AcceptQuery accepts the i-th proposed query: its results replace the
// active tab's contents (becoming the query-output pane of §2.1), and the
// feedback re-ranks the source graph.
//
// The undo checkpoint is taken only once the index and compilation are
// validated, and is rolled back if execution fails — a failed accept
// must not leave a spurious entry on the undo stack.
func (w *Workspace) AcceptQuery(i int) error {
	if i < 0 || i >= len(w.pendingQueries) {
		return fmt.Errorf("workspace: no pending query %d", i)
	}
	q := w.pendingQueries[i]
	plan, err := w.Int.CompileQuery(q)
	if err != nil {
		return err
	}
	w.checkpoint(opAcceptQuery)
	w.Keys.Accept()
	ec, cancel := w.execCtx("execute.query")
	ec.Stats().PlansExecuted.Add(1)
	res, err := plan.Execute(ec)
	cancel()
	if err != nil {
		w.dropCheckpoint()
		return err
	}
	var alts []*intlearn.Query
	for j, alt := range w.pendingQueries {
		if j != i {
			alts = append(alts, alt)
		}
	}
	_, rankDone := w.stage("rank.mira")
	w.Int.AcceptQuery(q, alts)
	rankDone()
	w.Decisions.Record(obs.Decision{
		Stage: "feedback.queries", Candidate: strings.Join(q.Nodes, "+"),
		Action: obs.ActionAccepted, Cost: q.Cost, Rank: i,
	})
	for _, alt := range alts {
		w.Decisions.Record(obs.Decision{
			Stage: "feedback.queries", Candidate: strings.Join(alt.Nodes, "+"),
			Action: obs.ActionOutranked, Cost: alt.Cost, Rank: -1,
			Reason: fmt.Sprintf("lost to accepted query %s", strings.Join(q.Nodes, "+")),
		})
	}
	out := w.SelectTab("Query Output")
	out.Schema = res.Schema.Clone()
	out.Query = q
	out.Rows = nil
	for _, a := range res.Rows {
		out.Rows = append(out.Rows, Row{Cells: a.Row, Prov: a.Prov})
	}
	w.pendingQueries = nil
	w.queryTerminals = nil
	w.qualityAccept(obs.FeedbackQueries, i)
	return nil
}

// RejectQuery rejects the i-th proposed query, demoting it below the
// relevance threshold and re-proposing.
func (w *Workspace) RejectQuery(i int) error {
	w.Keys.Reject()
	if i < 0 || i >= len(w.pendingQueries) {
		return fmt.Errorf("workspace: no pending query %d", i)
	}
	q := w.pendingQueries[i]
	_, rankDone := w.stage("rank.mira")
	w.Int.RejectQuery(q)
	rankDone()
	w.Decisions.Record(obs.Decision{
		Stage: "feedback.queries", Candidate: strings.Join(q.Nodes, "+"),
		Action: obs.ActionRejected, Cost: q.Cost, Rank: -1,
		Reason: "rejected by user; demoted below suggestion threshold",
	})
	// Copy-on-delete: slices previously handed out by PendingQueries()
	// must not be corrupted by the splice.
	rest := make([]*intlearn.Query, 0, len(w.pendingQueries)-1)
	rest = append(rest, w.pendingQueries[:i]...)
	rest = append(rest, w.pendingQueries[i+1:]...)
	w.pendingQueries = rest
	w.qualityReject(obs.FeedbackQueries)
	return nil
}

// RefreshColumnSuggestions recomputes the column auto-completions for the
// active tab (Figure 2's highlighted Zip column). It requires the tab to
// be committed (so it has a source-graph node).
func (w *Workspace) RefreshColumnSuggestions() []intlearn.Completion {
	t := w.ActiveTab()
	if t.SourceNode == "" {
		w.pendingCols = nil
		return nil
	}
	base := w.valuesPlan()
	ec, cancel := w.execCtx("suggest.refresh")
	w.pendingCols = w.Int.ColumnCompletionsCtx(ec, base, []string{t.SourceNode})
	cancel()
	w.refreshes.Add(1)
	w.qualityRound()
	return w.pendingCols
}

// PendingColumns lists the current column-completion proposals.
func (w *Workspace) PendingColumns() []intlearn.Completion { return w.pendingCols }

// SuggestionDrops reports the candidate completions the last refresh
// dropped because their plans failed to execute (e.g. a permanently
// failing service), with the reason — the absence of a suggestion is
// explained rather than silent.
func (w *Workspace) SuggestionDrops() []intlearn.CandidateDrop { return w.Int.LastDrops() }

// AcceptColumn accepts the i-th column completion: the new columns are
// appended to the active tab, values fill in per row, provenance carries
// the derivation, and feedback re-ranks the alternatives.
func (w *Workspace) AcceptColumn(i int) error {
	w.checkpoint(opAcceptColumn)
	w.Keys.Accept()
	if i < 0 || i >= len(w.pendingCols) {
		w.dropCheckpoint()
		return fmt.Errorf("workspace: no pending column %d", i)
	}
	chosen := w.pendingCols[i]
	var alts []intlearn.Completion
	for j, c := range w.pendingCols {
		if j != i {
			alts = append(alts, c)
		}
	}
	_, rankDone := w.stage("rank.mira")
	w.Int.AcceptCompletion(chosen, alts)
	rankDone()
	w.Decisions.Record(obs.Decision{
		Stage: "feedback.columns", Candidate: chosen.Edge.ID + "→" + chosen.Target,
		Action: obs.ActionAccepted, Cost: chosen.Cost, Rank: i,
	})
	for _, alt := range alts {
		w.Decisions.Record(obs.Decision{
			Stage: "feedback.columns", Candidate: alt.Edge.ID + "→" + alt.Target,
			Action: obs.ActionOutranked, Cost: alt.Cost, Rank: -1,
			Reason: "lost to accepted completion " + chosen.Edge.ID,
		})
	}

	t := w.ActiveTab()
	t.Schema = chosen.Result.Schema.Clone()
	// Rebuild rows from the completion result (it extends the concrete
	// rows); suggested rows are dropped.
	t.Rows = nil
	for _, a := range chosen.Result.Rows {
		t.Rows = append(t.Rows, Row{Cells: a.Row, Prov: a.Prov})
	}
	w.annotateActiveTab()
	// The tab's contents changed; re-commit so the catalog sees the wider
	// relation under the same source name.
	if t.SourceNode != "" {
		rel := t.Relation()
		rel.Name = t.SourceNode
		w.Cat.AddRelation(rel, "workspace")
		// The widened schema may enable new associations.
		w.Int.Graph.Discover(sourcegraph.DefaultOptions())
	}
	w.pendingCols = nil
	w.mode = ModeIntegration
	w.qualityAccept(obs.FeedbackColumns, i)
	return nil
}

// RejectColumn rejects the i-th column completion; its edge sinks below
// the suggestion threshold.
func (w *Workspace) RejectColumn(i int) error {
	w.Keys.Reject()
	if i < 0 || i >= len(w.pendingCols) {
		return fmt.Errorf("workspace: no pending column %d", i)
	}
	rejected := w.pendingCols[i]
	_, rankDone := w.stage("rank.mira")
	w.Int.RejectCompletion(rejected)
	rankDone()
	w.Decisions.Record(obs.Decision{
		Stage: "feedback.columns", Candidate: rejected.Edge.ID + "→" + rejected.Target,
		Action: obs.ActionRejected, Cost: rejected.Cost, Rank: -1,
		Reason: "rejected by user; edge demoted below suggestion threshold",
	})
	rest := make([]intlearn.Completion, 0, len(w.pendingCols)-1)
	rest = append(rest, w.pendingCols[:i]...)
	rest = append(rest, w.pendingCols[i+1:]...)
	w.pendingCols = rest
	w.qualityReject(obs.FeedbackColumns)
	return nil
}

// ExplainCompletion renders the provenance explanation for a pending
// column completion's first rows — what the Tuple Explanation pane shows
// when the user inspects a suggestion before deciding.
func (w *Workspace) ExplainCompletion(i int, rows int) (string, error) {
	if i < 0 || i >= len(w.pendingCols) {
		return "", fmt.Errorf("workspace: no pending column %d", i)
	}
	c := w.pendingCols[i]
	var b strings.Builder
	fmt.Fprintf(&b, "Suggested column(s) %s via %s\n", colNames(c.NewCols), c.Edge.Label())
	if note := c.PartialNote(); note != "" {
		fmt.Fprintf(&b, "⚠ %s — some service lookups kept failing and were skipped\n", note)
	}
	for j, a := range c.Result.Rows {
		if j >= rows {
			break
		}
		fmt.Fprintf(&b, "(%s)\n%s", strings.Join(a.Row.Texts(), ", "), provenance.Explain(a.Prov))
	}
	return b.String(), nil
}

func colNames(cols []table.Column) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}
