// Package obs is CopyCat's observability substrate: a span tracer, a
// metrics registry (counters, gauges, latency histograms), and a
// decision log explaining why candidate queries were pruned, degraded,
// or outranked. The whole package is zero-dependency (stdlib plus the
// repo's own Clock), concurrency-safe, and deterministic
// under an injectable clock — experiments on a VirtualClock produce
// byte-identical trace exports run after run.
//
// Everything tolerates a nil receiver: a nil *Trace, *Span, *Registry,
// *Counter, *Gauge, *Histogram, or *DecisionLog turns every method into
// a no-op. Call sites therefore never branch on "is tracing enabled";
// they just call, and the disabled path costs a single nil check.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed region of the pipeline. Spans are created from a
// Trace (root spans) or from another Span (children), annotated with
// SetAttr, and recorded into the trace when End is called; a span that
// is never ended is dropped. A nil *Span is inert.
type Span struct {
	tr       *Trace
	id       int64
	parentID int64
	name     string
	cat      string
	start    time.Time
	attrs    []Attr
}

// Child starts a sub-span. Safe on a nil receiver (returns nil).
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, cat, s.id)
}

// SetAttr annotates the span. Attrs are sorted by key at export, so
// call order does not affect the serialized trace.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: fmt.Sprint(value)})
}

// End closes the span and records it into its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.record(s, s.tr.clock.Now())
}

// SpanEvent is one finished span as published on the event stream and
// served by /trace/stream, in end order with the trace's internal ids.
// Live streaming cannot use the deterministic export reordering (that
// requires the whole span set); consumers that need diffable output
// still use WriteJSONL / WriteChrome on the completed trace.
type SpanEvent struct {
	Seq     int64  `json:"seq"` // stream sequence number, monotonically increasing
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// spanRec is a finished span as stored by the trace.
type spanRec struct {
	id, parentID int64
	name, cat    string
	startNs      int64 // offset from the trace epoch
	durNs        int64
	attrs        []Attr
}

// Trace collects spans. It is safe for concurrent use: the parallel
// candidate executor and the Lawler fan-out emit spans into one shared
// trace. A nil *Trace is inert — Start returns nil and every derived
// call no-ops — which is the disabled fast path.
type Trace struct {
	clock Clock
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []spanRec
	stream *Stream // every ended span is published here (nil: none)
}

// NewTrace creates a trace on the given clock; nil means the wall
// clock. The trace epoch (timestamp zero of every export) is the
// clock's Now at creation.
func NewTrace(clock Clock) *Trace {
	if clock == nil {
		clock = SystemClock{}
	}
	return &Trace{clock: clock, epoch: clock.Now()}
}

// Clock returns the clock the trace timestamps with.
func (t *Trace) Clock() Clock {
	if t == nil {
		return SystemClock{}
	}
	return t.clock
}

// Start begins a root span. Safe on a nil receiver (returns nil).
func (t *Trace) Start(name, cat string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, cat, 0)
}

func (t *Trace) newSpan(name, cat string, parent int64) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{tr: t, id: id, parentID: parent, name: name, cat: cat, start: t.clock.Now()}
}

func (t *Trace) record(s *Span, end time.Time) {
	rec := spanRec{
		id:       s.id,
		parentID: s.parentID,
		name:     s.name,
		cat:      s.cat,
		startNs:  s.start.Sub(t.epoch).Nanoseconds(),
		durNs:    end.Sub(s.start).Nanoseconds(),
		attrs:    s.attrs,
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	stream := t.stream
	t.mu.Unlock()
	if stream.attached() {
		// Outside the lock: the stream takes its own and may wake
		// /trace/stream followers.
		stream.Publish(Event{Kind: KindSpan, Span: &SpanEvent{
			ID:      rec.id,
			Parent:  rec.parentID,
			Name:    rec.name,
			Cat:     rec.cat,
			StartNs: rec.startNs,
			DurNs:   rec.durNs,
			Attrs:   append([]Attr(nil), rec.attrs...),
		}})
	}
}

// SetStream makes every span ended from now on also publish on s, in
// end order (nil stops publishing). A workspace points its trace at the
// stream it currently feeds.
func (t *Trace) SetStream(s *Stream) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stream = s
	t.mu.Unlock()
}

// Len reports the number of recorded (ended) spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset drops every recorded span, keeping the clock and epoch.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// ---------------------------------------------------------------- export

// exportSpan is a span with its export-stable id assignment.
type exportSpan struct {
	spanRec
	exportID       int64
	parentExportID int64
	tid            int64 // lane: the export id of the span's root ancestor
}

// attrKey renders attrs as a sort key so sibling ordering is stable.
func attrKey(attrs []Attr) string {
	sorted := append([]Attr(nil), attrs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := ""
	for _, a := range sorted {
		key += a.Key + "=" + a.Value + ";"
	}
	return key
}

// ordered lays the recorded spans out deterministically: siblings sort
// by (start, duration, name, attrs), then a depth-first walk assigns
// sequential export ids. Two runs producing the same span set — however
// the goroutines interleaved — export byte-identical JSON, which is
// what makes virtual-clock traces diffable artifacts.
func (t *Trace) ordered() []*exportSpan {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()

	byID := make(map[int64]bool, len(spans))
	for _, s := range spans {
		byID[s.id] = true
	}
	children := map[int64][]*exportSpan{}
	for i := range spans {
		es := &exportSpan{spanRec: spans[i]}
		parent := es.parentID
		if !byID[parent] {
			parent = 0 // orphan (parent never ended): export as a root
		}
		children[parent] = append(children[parent], es)
	}
	for _, sibs := range children {
		sort.SliceStable(sibs, func(i, j int) bool {
			a, b := sibs[i], sibs[j]
			if a.startNs != b.startNs {
				return a.startNs < b.startNs
			}
			if a.durNs != b.durNs {
				return a.durNs < b.durNs
			}
			if a.name != b.name {
				return a.name < b.name
			}
			return attrKey(a.attrs) < attrKey(b.attrs)
		})
	}
	var out []*exportSpan
	var next int64
	var walk func(parent int64, parentExport, tid int64)
	walk = func(parent int64, parentExport, tid int64) {
		for _, es := range children[parent] {
			next++
			es.exportID = next
			es.parentExportID = parentExport
			if tid == 0 {
				es.tid = es.exportID // each root span opens its own lane
			} else {
				es.tid = tid
			}
			out = append(out, es)
			walk(es.id, es.exportID, es.tid)
		}
	}
	walk(0, 0, 0)
	return out
}

// chromeEvent is one Chrome trace_event entry ("X" = complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur"`
	Pid  int64             `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome serializes the trace in Chrome trace_event JSON — load
// the file at chrome://tracing or https://ui.perfetto.dev. Events nest
// by time within a lane (tid); each root span and its subtree share a
// lane, so concurrent candidate executions render side by side.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	events := make([]chromeEvent, 0, t.Len())
	for _, es := range t.ordered() {
		ev := chromeEvent{
			Name: es.name,
			Cat:  es.cat,
			Ph:   "X",
			Ts:   float64(es.startNs) / 1e3,
			Dur:  float64(es.durNs) / 1e3,
			Pid:  1,
			Tid:  es.tid,
		}
		if len(es.attrs) > 0 {
			ev.Args = make(map[string]string, len(es.attrs))
			for _, a := range es.attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// jsonlSpan is one span as a JSONL record.
type jsonlSpan struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// WriteJSONL serializes the trace as one span per line, parent before
// child, in the same deterministic order as WriteChrome.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, es := range t.ordered() {
		attrs := append([]Attr(nil), es.attrs...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
		rec := jsonlSpan{
			ID:      es.exportID,
			Parent:  es.parentExportID,
			Name:    es.name,
			Cat:     es.cat,
			StartNs: es.startNs,
			DurNs:   es.durNs,
			Attrs:   attrs,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
