package workspace

import (
	"strings"
	"testing"

	"copycat/internal/obs"
)

// TestQualityInstrumentationAcrossSurfaces drives the demo flow and
// checks every feedback surface lands on the right tracker slot: row
// accepts, column rejects and accepts, rounds-to-accept, and the undo
// attribution back to the accepted surface.
func TestQualityInstrumentationAcrossSurfaces(t *testing.T) {
	e := newEnv(t, 0)
	host := obs.NewHostStream(nil, obs.NewRegistry())
	e.ws.SetStream(host.For("s1", "acme"))
	e.pasteShelters(t, 2)
	if err := e.ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	st := e.ws.QualityStats()
	if st.Accepts[obs.FeedbackRows] != 1 {
		t.Fatalf("row accept not tracked: %+v", st)
	}

	e.ws.SetMode(ModeIntegration)
	if comps := e.ws.RefreshColumnSuggestions(); len(comps) < 2 {
		t.Fatalf("need ≥2 column suggestions, got %d", len(comps))
	}
	if err := e.ws.RejectColumn(0); err != nil {
		t.Fatal(err)
	}
	if err := e.ws.AcceptColumn(0); err != nil {
		t.Fatal(err)
	}
	st = e.ws.QualityStats()
	if st.Accepts[obs.FeedbackColumns] != 1 || st.Rejects[obs.FeedbackColumns] != 1 {
		t.Fatalf("column feedback not tracked: %+v", st)
	}
	if st.TotalAccepts != 2 || st.TotalRejects != 1 {
		t.Fatalf("totals = %d/%d, want 2/1", st.TotalAccepts, st.TotalRejects)
	}
	// The accepted column held rank 0 at accept time.
	if st.AcceptedRank[0] != 2 {
		t.Fatalf("rank histogram = %v, want two rank-0 accepts", st.AcceptedRank)
	}
	// At least one suggestion refresh ran between the row accept and the
	// column accept, so rounds-to-accept observed a nonzero value.
	if st.RoundsObserved == 0 || st.MeanRounds <= 0 {
		t.Fatalf("rounds-to-accept not observed: %+v", st)
	}

	// Undoing the column accept is attributed back to the columns surface.
	if err := e.ws.Undo(); err != nil {
		t.Fatal(err)
	}
	st = e.ws.QualityStats()
	if st.AcceptsUndone != 1 {
		t.Fatalf("undo not tracked: %+v", st)
	}

	// The stream carried the same events to the host-wide and the
	// tenant's trackers.
	for name, hs := range map[string]obs.QualityStats{"host": host.Quality(), "tenant": host.TenantQuality()["acme"]} {
		if hs.TotalAccepts != 2 || hs.TotalRejects != 1 || hs.AcceptsUndone != 1 {
			t.Fatalf("%s tracker saw %d/%d/%d accept/reject/undo, want 2/1/1",
				name, hs.TotalAccepts, hs.TotalRejects, hs.AcceptsUndone)
		}
	}
}

// TestQualityDecisionLog: every feedback event also lands in the
// decision log's "quality" stage, the `:why quality` surface.
func TestQualityDecisionLog(t *testing.T) {
	e := newEnv(t, 0)
	e.ws.Decisions = obs.NewDecisionLog()
	e.pasteShelters(t, 2)
	if err := e.ws.AcceptRows(); err != nil {
		t.Fatal(err)
	}
	ds := e.ws.Decisions.For("quality." + obs.FeedbackRows)
	if len(ds) != 1 || ds[0].Stage != "quality" || ds[0].Action != obs.ActionAccepted {
		t.Fatalf("quality decision missing or wrong: %+v", ds)
	}
	if !strings.Contains(ds[0].Reason, "rolling acceptance") {
		t.Errorf("decision reason should carry the rolling rate: %q", ds[0].Reason)
	}
}

// TestRenderQuality pins the :quality report format.
func TestRenderQuality(t *testing.T) {
	q := obs.NewQualityTracker()
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackColumns, Accepted: true, Rank: 1, Rounds: 2})
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackQueries, Rank: -1})
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackColumns, Undo: true, Rank: -1})
	out := RenderQuality(q.Snapshot())
	for _, want := range []string{
		"suggestion quality: 1 accepts / 1 rejects (acceptance rate 0.500)",
		"columns 1/0",
		"queries 0/1",
		"rank1=1",
		"mean 1.000 over 1 ranked accepts",
		"mean 2.000 over 1 observed accepts",
		"accepts undone         1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderQuality missing %q:\n%s", want, out)
		}
	}
}
