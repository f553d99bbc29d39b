package main

import (
	"sync/atomic"
	"testing"
	"time"

	"copycat/internal/obs"
	"copycat/internal/sourcegraph"
)

func TestCoveredMergesOverlaps(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 10}, {5, 20}, {30, 40}, {35, 45}}
	// [0,20] + [30,45] + [50,60] = 20 + 15 + 10
	if got := covered(iv); got != 45 {
		t.Fatalf("covered = %d, want 45", got)
	}
	if got := covered(nil); got != 0 {
		t.Fatalf("covered(nil) = %d, want 0", got)
	}
}

// A call span with two overlapping children of another layer, one of
// which sticks out past its parent, and a same-layer child with a
// grandchild of its own.
func selfFixture() []span {
	return []span{
		{ID: 1, Kind: kindOp, Name: "op", Layer: "perfbench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: kindCall, Name: "workspace.RefreshColumnSuggestions", Layer: "workspace", Start: 10, End: 90},
		{ID: 3, Parent: 2, Kind: kindStage, Name: "suggest.refresh", Layer: "workspace", Start: 12, End: 88},
		{ID: 4, Parent: 3, Kind: kindStage, Name: "execute.candidate:a", Layer: "engine", Start: 20, End: 50},
		{ID: 5, Parent: 3, Kind: kindStage, Name: "execute.candidate:b", Layer: "linkage", Start: 40, End: 95},
		{ID: 6, Parent: 4, Kind: kindStage, Name: "svc.call:zip", Layer: "engine", Start: 25, End: 30},
	}
}

func TestComputeSelfSubtractsCoveredChildren(t *testing.T) {
	spans := selfFixture()
	children := computeSelf(spans)
	want := map[int64]int64{
		1: 100 - 80,       // op minus the call
		2: 80 - 76,        // call minus the stage
		3: 76 - (88 - 20), // stage minus [20,88] (candidate b clipped at 88)
		4: 30 - 5,
		5: 55,
		6: 5,
	}
	for i := range spans {
		if spans[i].Self != want[spans[i].ID] {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, spans[i].Self, want[spans[i].ID])
		}
	}
	// The workspace layer's own time under the call: the call's and the
	// stage's self times, not the engine's.
	if got := layerSelf(spans, children, 1); got != 4+8 {
		t.Errorf("layerSelf(call) = %d, want 12", got)
	}
	if got := layerSelf(spans, children, 3); got != 25+5 {
		t.Errorf("layerSelf(engine candidate) = %d, want 30", got)
	}
}

func TestLayerMetricsUnaccountedFraction(t *testing.T) {
	set := newSpanSet(selfFixture())
	m := layerMetrics(set, map[string]float64{}, 1)
	if got := m["trace.unaccounted_frac"]; got != 0.2 {
		t.Errorf("unaccounted = %v, want 0.2", got)
	}
	if got := m["workspace.suggest.self_ms"]; got != 0 {
		t.Errorf("suggest self with no suggest-role call = %v, want 0", got)
	}
	if got := m["linkage.candidates_per_op"]; got != 1 {
		t.Errorf("linkage candidates per op = %v, want 1", got)
	}
	if got, want := m["engine.candidate.ms_per_op"], 30/1e6; got != want {
		t.Errorf("engine candidate ms per op = %v, want %v", got, want)
	}
}

func TestProgramLayerSplitsRecordLinkCandidates(t *testing.T) {
	kinds := map[string]sourcegraph.EdgeKind{"link": sourcegraph.KindRecordLink, "join": sourcegraph.KindJoin}
	for name, want := range map[string]string{
		"execute.candidate:link": "linkage",
		"execute.candidate:join": "engine",
		"svc.call:geocode":       "engine",
		"learn.generalize":       "structlearn",
		"learn.type":             "modellearn",
		"sourcegraph.discover":   "sourcegraph",
		"search.topk":            "steiner",
		"suggest.refresh":        "workspace",
	} {
		if got := programLayer(name, kinds); got != want {
			t.Errorf("programLayer(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestImportProgramNestsStagesUnderCalls(t *testing.T) {
	var ids atomic.Int64
	epoch := time.Now()
	tc := newTracer(0, epoch, &ids)
	tc.on = true
	tc.beginOp("op", time.Now())
	tr := obs.NewTrace(nil)
	tc.adopt(tr)
	var stage *obs.Span
	start, end := time.Now(), time.Time{}
	func() {
		stage = tr.Start("suggest.refresh", "stage")
		stage.Child("execute.candidate:e1", "candidate").End()
		time.Sleep(time.Millisecond)
		stage.End()
	}()
	end = time.Now()
	call := tc.record(callRefresh, "workspace", roleSuggest, start, end)
	tc.endOp(time.Now())

	spans, err := importProgram(tc.progs[0], epoch, tc.spans, &ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("imported %d spans, want 2 (marker dropped)", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	st, cand := byName["suggest.refresh"], byName["execute.candidate:e1"]
	if st.Parent != call {
		t.Errorf("stage parent = %d, want the enclosing call %d", st.Parent, call)
	}
	if cand.Parent != st.ID {
		t.Errorf("candidate parent = %d, want the stage %d", cand.Parent, st.ID)
	}
	if st.Start < tc.ns(start)-clockSlackNs || st.End > tc.ns(end)+clockSlackNs {
		t.Errorf("stage [%d,%d] not inside call [%d,%d]", st.Start, st.End, tc.ns(start), tc.ns(end))
	}
	if st.Layer != "workspace" || cand.Layer != "engine" {
		t.Errorf("layers = %q, %q", st.Layer, cand.Layer)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var ids atomic.Int64
	tc := newTracer(0, time.Now(), &ids)
	tc.beginOp("op", time.Now())
	tc.record(callPaste, "workspace", "", time.Now(), time.Now())
	tc.adopt(obs.NewTrace(nil))
	tc.add(cRowsIn, 3)
	tc.endOp(time.Now())
	if len(tc.spans) != 0 || len(tc.progs) != 0 || len(tc.counts) != 0 || tc.ops != 0 {
		t.Fatalf("untraced tracer recorded %d spans, %d traces, %d counts, %d ops",
			len(tc.spans), len(tc.progs), len(tc.counts), tc.ops)
	}
}
