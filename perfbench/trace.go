package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"copycat/internal/obs"
	"copycat/internal/sourcegraph"
)

// span is one timed region of a traced op: either a call the benchmark
// made into a layer's public function, or a stage span the program's
// own tracer emitted while serving that call. Times are nanoseconds
// since the run epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Client int    `json:"client"`
	Kind   string `json:"kind"` // kindOp, kindCall or kindStage
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Role tells apart calls of one function that serve different steps
	// of an op (the first suggestion versus the re-rank, say).
	Role  string `json:"role,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Self is the duration minus the part its child spans cover; set by
	// computeSelf.
	Self int64 `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// Span kinds: the root of one op, a call the benchmark made, and a
// stage span the program emitted.
const (
	kindOp    = "op"
	kindCall  = "call"
	kindStage = "stage"
)

// markerName is the span the benchmark starts in each program trace to
// pin that trace's epoch to wall time (obs.Trace exports offsets only).
const markerName = "perfbench.epoch"

// progTrace is one program trace owned by one op.
type progTrace struct {
	op     int64
	client int
	tr     *obs.Trace
	marker time.Time // wall time just before the marker span started
}

// tracer records one client's spans. It is used by a single goroutine;
// only the id sequence is shared between clients. All methods are
// no-ops while on is false, so untraced phases pay one branch per call.
type tracer struct {
	on     bool
	client int
	epoch  time.Time
	ids    *atomic.Int64

	op    int64 // current op id, also its root span's id (0 outside an op)
	root  int   // index of the current op's root span in spans
	spans []span
	progs []progTrace
	// kinds maps source-graph edge IDs seen by traced ops to their kind,
	// so candidate spans can be split into record-link and other joins
	// after the sessions that owned the graphs are gone.
	kinds map[string]sourcegraph.EdgeKind
	// counts accumulates the program's counters over traced ops, keyed
	// by the name the per-layer report reads them under.
	counts map[string]float64
	ops    int
}

func newTracer(client int, epoch time.Time, ids *atomic.Int64) *tracer {
	return &tracer{
		client: client, epoch: epoch, ids: ids,
		kinds:  map[string]sourcegraph.EdgeKind{},
		counts: map[string]float64{},
	}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// beginOp opens the root span of one op; every span until endOp shares
// its op id.
func (t *tracer) beginOp(name string, start time.Time) {
	if !t.on {
		return
	}
	t.op = t.ids.Add(1)
	t.root = len(t.spans)
	t.spans = append(t.spans, span{ID: t.op, Op: t.op, Client: t.client, Kind: kindOp,
		Name: name, Layer: "perfbench", Start: t.ns(start)})
}

// endOp closes the op's root span.
func (t *tracer) endOp(end time.Time) {
	if !t.on || t.op == 0 {
		return
	}
	t.spans[t.root].End = t.ns(end)
	t.ops++
	t.op = 0
}

// record adds one call span under the current op's root and returns
// its id (0 outside a traced op).
func (t *tracer) record(name, layer, role string, start, end time.Time) int64 {
	return t.recordUnder(t.op, name, layer, role, start, end)
}

// recordUnder adds one call span under the given parent span.
func (t *tracer) recordUnder(parent int64, name, layer, role string, start, end time.Time) int64 {
	if !t.on || t.op == 0 {
		return 0
	}
	id := t.ids.Add(1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Client: t.client,
		Kind: kindCall, Name: name, Layer: layer, Role: role, Start: t.ns(start), End: t.ns(end)})
	return id
}

// adopt registers a program trace as belonging to the current op. A
// marker span started right away ties the trace's offsets to wall time.
func (t *tracer) adopt(tr *obs.Trace) {
	if !t.on || tr == nil {
		return
	}
	at := time.Now()
	tr.Start(markerName, "perfbench").End()
	t.progs = append(t.progs, progTrace{op: t.op, client: t.client, tr: tr, marker: at})
}

// noteEdges remembers the kind of every edge in a session's graph.
func (t *tracer) noteEdges(g *sourcegraph.Graph) {
	if !t.on || g == nil {
		return
	}
	for _, e := range g.Edges() {
		t.kinds[e.ID] = e.Kind
	}
}

// add accumulates a program counter delta for the per-layer report.
func (t *tracer) add(key string, v float64) {
	if t.on {
		t.counts[key] += v
	}
}

// progSpan is one line of obs.Trace.WriteJSONL.
type progSpan struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// importProgram converts one program trace into spans on the run clock
// and hangs its root spans under the innermost benchmark call of the
// same op whose interval contains them (the op root otherwise).
func importProgram(pt progTrace, epoch time.Time, calls []span, ids *atomic.Int64, kinds map[string]sourcegraph.EdgeKind) ([]span, error) {
	var buf bytes.Buffer
	if err := pt.tr.WriteJSONL(&buf); err != nil {
		return nil, fmt.Errorf("export program trace: %w", err)
	}
	var recs []progSpan
	var offset int64
	marked := false
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r progSpan
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("decode program span: %w", err)
		}
		if r.Name == markerName {
			offset, marked = pt.marker.Sub(epoch).Nanoseconds()-r.StartNs, true
			continue
		}
		recs = append(recs, r)
	}
	if !marked && len(recs) > 0 {
		return nil, fmt.Errorf("program trace of op %d has no epoch marker", pt.op)
	}
	newID := make(map[int64]int64, len(recs))
	for _, r := range recs {
		newID[r.ID] = ids.Add(1)
	}
	out := make([]span, 0, len(recs))
	for _, r := range recs {
		s := span{ID: newID[r.ID], Op: pt.op, Client: pt.client, Kind: kindStage, Name: r.Name,
			Start: r.StartNs + offset, End: r.StartNs + offset + r.DurNs}
		s.Layer = programLayer(r.Name, kinds)
		if p, ok := newID[r.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = enclosingCall(calls, &s)
		}
		out = append(out, s)
	}
	return out, nil
}

// clockSlackNs absorbs the conversion error between a program trace's
// clock and the run clock (the marker is taken a few hundred ns apart).
const clockSlackNs = 2000

// enclosingCall returns the innermost span in calls (the op's benchmark
// spans, root included) whose interval contains s, or 0.
func enclosingCall(calls []span, s *span) int64 {
	best, bestDur := int64(0), int64(-1)
	for i := range calls {
		c := &calls[i]
		if c.Start-clockSlackNs <= s.Start && s.End <= c.End+clockSlackNs {
			if bestDur < 0 || c.dur() < bestDur {
				best, bestDur = c.ID, c.dur()
			}
		}
	}
	return best
}

// Layer names of the program's own stage spans. Stages are named after
// the layer that does their work; the suggestion stage is workspace
// orchestration around the candidate executions it spawns.
func programLayer(name string, kinds map[string]sourcegraph.EdgeKind) string {
	switch {
	case strings.HasPrefix(name, "execute.candidate:"):
		if kinds[strings.TrimPrefix(name, "execute.candidate:")] == sourcegraph.KindRecordLink {
			return "linkage"
		}
		return "engine"
	case strings.HasPrefix(name, "svc.call:"), strings.HasPrefix(name, "op."):
		return "engine"
	case name == "learn.generalize":
		return "structlearn"
	case name == "learn.type":
		return "modellearn"
	case name == "sourcegraph.discover":
		return "sourcegraph"
	case name == "rank.mira":
		return "mira"
	case name == "search.queries":
		return "intlearn"
	case name == "search.topk", name == "steiner.solve":
		return "steiner"
	}
	return "workspace"
}

// computeSelf sets every span's Self: its duration minus the union of
// its children's intervals clipped to it. Children of one parent may
// overlap (the candidate pool runs in parallel), so intervals are
// merged before they are subtracted. It returns the child index lists
// by parent id.
func computeSelf(spans []span) map[int64][]int {
	children := map[int64][]int{}
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		s.Self = s.dur() - covered(iv)
	}
	return children
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			if x[1] > curHi {
				curHi = x[1]
			}
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf is a span's self time plus that of every descendant reached
// through spans of the same layer: the time the layer itself spent
// serving the span, with deeper layers' work taken out.
func layerSelf(spans []span, children map[int64][]int, i int) int64 {
	total := spans[i].Self
	for _, c := range children[spans[i].ID] {
		if spans[c].Layer == spans[i].Layer {
			total += layerSelf(spans, children, c)
		}
	}
	return total
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
