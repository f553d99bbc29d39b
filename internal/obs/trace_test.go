package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceBasicHierarchy(t *testing.T) {
	clk := NewVirtualClock()
	tr := NewTrace(clk)
	root := tr.Start("suggest.refresh", "stage")
	clk.Advance(2 * time.Millisecond)
	child := root.Child("execute.candidate", "candidate")
	child.SetAttr("edge", "e1")
	clk.Advance(3 * time.Millisecond)
	child.End()
	root.End()

	if tr.Len() != 2 {
		t.Fatalf("got %d spans, want 2", tr.Len())
	}
	ordered := tr.ordered()
	if ordered[0].name != "suggest.refresh" || ordered[0].parentExportID != 0 {
		t.Fatalf("root mis-ordered: %+v", ordered[0])
	}
	if ordered[1].name != "execute.candidate" || ordered[1].parentExportID != ordered[0].exportID {
		t.Fatalf("child not parented to root: %+v", ordered[1])
	}
	if ordered[1].startNs != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("child start = %d", ordered[1].startNs)
	}
	if ordered[1].durNs != (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("child dur = %d", ordered[1].durNs)
	}
	if ordered[0].durNs != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("root dur = %d", ordered[0].durNs)
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	tr := NewTrace(NewVirtualClock())
	sp := tr.Start("learn.paste", "stage")
	sp.Child("learn.generalize", "stage").End()
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("event phase %v, want X", ev["ph"])
		}
	}
}

// emitConcurrent drives a trace the way the parallel candidate executor
// does: one shared trace, one root per stage, many goroutines emitting
// children with distinct names.
func emitConcurrent(tr *Trace, clk *VirtualClock) {
	root := tr.Start("suggest.refresh", "stage")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child(fmt.Sprintf("execute.candidate:e%02d", i), "candidate")
			sp.SetAttrInt("rows", int64(i))
			grand := sp.Child("svc.call:Geocoder", "service")
			grand.End()
			sp.End()
		}(i)
	}
	wg.Wait()
	clk.Advance(time.Millisecond)
	root.End()
}

// TestConcurrentSpanEmission is the race-detector test: many goroutines
// share one trace (run under -race via make test-race).
func TestConcurrentSpanEmission(t *testing.T) {
	clk := NewVirtualClock()
	tr := NewTrace(clk)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			emitConcurrent(tr, clk)
		}()
	}
	wg.Wait()
	if want := 8 * (1 + 16*2); tr.Len() != want {
		t.Fatalf("got %d spans, want %d", tr.Len(), want)
	}
}

// TestDeterministicExport checks the tentpole reproducibility claim:
// two runs with the same virtual clock and the same (concurrently
// emitted) span set export byte-identical JSON, both Chrome and JSONL.
func TestDeterministicExport(t *testing.T) {
	run := func() (string, string) {
		clk := NewVirtualClock()
		tr := NewTrace(clk)
		emitConcurrent(tr, clk)
		var chrome, jsonl bytes.Buffer
		if err := tr.WriteChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return chrome.String(), jsonl.String()
	}
	c1, j1 := run()
	c2, j2 := run()
	if c1 != c2 {
		t.Fatalf("chrome exports differ:\n%s\nvs\n%s", c1, c2)
	}
	if j1 != j2 {
		t.Fatalf("jsonl exports differ:\n%s\nvs\n%s", j1, j2)
	}
	if !strings.Contains(j1, "execute.candidate:e00") {
		t.Fatalf("jsonl export missing candidate span:\n%s", j1)
	}
}

// TestNilTraceIsFreeAndSilent pins the disabled fast path: a nil trace
// produces nil spans, every derived call no-ops, and — crucially for
// the "tracing disabled costs ~zero" budget — allocates nothing.
func TestNilTraceIsFreeAndSilent(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x", "y")
	if sp != nil {
		t.Fatal("nil trace must return nil span")
	}
	child := sp.Child("c", "d")
	child.SetAttr("k", "v")
	child.End()
	sp.End()
	if tr.Len() != 0 {
		t.Fatal("nil trace must record nothing")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Start("a", "b")
		c := s.Child("c", "d")
		c.SetAttrInt("n", 1)
		c.End()
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per op, want 0", allocs)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil trace chrome export malformed: %s", buf.String())
	}
}

func TestOrphanSpansExportAsRoots(t *testing.T) {
	tr := NewTrace(NewVirtualClock())
	root := tr.Start("stage", "s")
	child := root.Child("child", "c")
	child.End()
	// root never ends — child's parent is missing from the record.
	ordered := tr.ordered()
	if len(ordered) != 1 || ordered[0].parentExportID != 0 {
		t.Fatalf("orphan should export as root: %+v", ordered)
	}
}

func TestSpanInContext(t *testing.T) {
	tr := NewTrace(NewVirtualClock())
	sp := tr.Start("root", "r")
	ctx := ContextWithSpan(nil, sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext = %v, want the stored span", got)
	}
	if got := SpanFromContext(nil); got != nil {
		t.Fatalf("SpanFromContext(nil) = %v, want nil", got)
	}
	if got := SpanFromContext(ContextWithSpan(nil, nil)); got != nil {
		t.Fatalf("nil span roundtrip = %v, want nil", got)
	}
}

// BenchmarkDisabledSpan measures the nil fast path the whole pipeline
// pays when tracing is off.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("a", "b")
		c := s.Child("c", "d")
		c.End()
		s.End()
	}
}

// BenchmarkEnabledSpan measures the enabled path for comparison.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTrace(NewVirtualClock())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("a", "b")
		c := s.Child("c", "d")
		c.End()
		s.End()
		// Drop the buffer periodically so the benchmark measures span
		// cost, not the GC scanning an ever-growing retained trace.
		if tr.Len() >= 1<<14 {
			b.StopTimer()
			tr.Reset()
			b.StartTimer()
		}
	}
	b.StopTimer()
	tr.Reset()
}
