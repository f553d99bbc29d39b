package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copycat/internal/obs"
	"copycat/internal/obs/flight"
	"copycat/internal/resilience"
)

// sampleSnapshot fabricates a snapshot with every instrument kind.
func sampleSnapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	reg.Counter("engine.rows_in").Add(120)
	reg.Counter("engine.degraded_rows").Add(3)
	reg.Counter("engine.rows_out").Add(100)
	reg.Gauge("cache.hit_rate").Set(0.75)
	reg.Gauge("plancache.entries").Set(12)
	h := reg.Histogram("latency.suggest.refresh")
	for i := 0; i < 50; i++ {
		h.Observe(2 * time.Millisecond)
	}
	h.Observe(40 * time.Millisecond)
	return reg.Snapshot()
}

func sampleBreakers() []resilience.BreakerStatus {
	return []resilience.BreakerStatus{
		{Service: "geocoder", State: resilience.BreakerClosed, StateName: "closed", Trips: 0},
		{Service: "zip", State: resilience.BreakerOpen, StateName: "open", Trips: 2},
	}
}

func TestExpositionValidCompleteAndDeterministic(t *testing.T) {
	clock := obs.NewVirtualClock()
	slo := obs.NewSLOTracker()
	slo.Observe(clock.Now(), 2*time.Millisecond)
	st := slo.Status(clock.Now())

	var a, b strings.Builder
	if err := WriteExposition(&a, sampleSnapshot(), sampleBreakers(), &st); err != nil {
		t.Fatal(err)
	}
	if err := WriteExposition(&b, sampleSnapshot(), sampleBreakers(), &st); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition must be byte-identical for identical state")
	}
	if err := Lint(strings.NewReader(a.String())); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, a.String())
	}

	body := a.String()
	for _, want := range []string{
		"# TYPE copycat_engine_rows_in_total counter",
		"copycat_engine_rows_in_total 120",
		"# TYPE copycat_cache_hit_rate gauge",
		"copycat_cache_hit_rate 0.75",
		"# TYPE copycat_latency_suggest_refresh_seconds histogram",
		`copycat_latency_suggest_refresh_seconds_bucket{le="0.0025"} 50`,
		`copycat_latency_suggest_refresh_seconds_bucket{le="+Inf"} 51`,
		"copycat_latency_suggest_refresh_seconds_count 51",
		`copycat_breaker_state{service="zip"} 1`,
		`copycat_breaker_state{service="geocoder"} 0`,
		`copycat_breaker_trips_total{service="zip"} 2`,
		`copycat_slo_fast_burn{stage="suggest.refresh"} 0`,
		`copycat_slo_threshold_seconds{stage="suggest.refresh"} 0.025`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// Cumulative buckets are monotone: the 40ms observation lands in a
	// later bucket, not the 2.5ms one.
	if strings.Contains(body, `le="0.0025"} 51`) {
		t.Error("buckets must not over-count")
	}
}

func TestLintCatchesBadExpositions(t *testing.T) {
	cases := map[string]string{
		"untyped series": "some_metric 1\n",
		"duplicate series": "# TYPE m counter\n" +
			"m 1\nm 2\n",
		"duplicate labeled series": "# TYPE m gauge\n" +
			`m{a="x"} 1` + "\n" + `m{a="x"} 2` + "\n",
		"duplicate TYPE": "# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"bad type":       "# TYPE m histogramm\nm 1\n",
		"bad value":      "# TYPE m counter\nm one\n",
		"no value":       "# TYPE m counter\nm\n",
		"bad name":       "# TYPE m counter\n1m 3\n",
		"child suffix on non-histogram": "# TYPE m counter\n" +
			`m_bucket{le="1"} 1` + "\n",
		"unquoted label": "# TYPE m gauge\nm{a=x} 1\n",
		"empty body":     "\n",
	}
	for name, body := range cases {
		if err := Lint(strings.NewReader(body)); err == nil {
			t.Errorf("%s: lint should reject:\n%s", name, body)
		}
	}
	// Distinct label values are distinct series, not duplicates.
	good := "# TYPE m gauge\n" + `m{a="x"} 1` + "\n" + `m{a="y"} 2` + "\n"
	if err := Lint(strings.NewReader(good)); err != nil {
		t.Errorf("distinct labels should pass: %v", err)
	}
}

// tripBreaker drives the named service's breaker open through the
// caller's public path.
func tripBreaker(t *testing.T, c *resilience.Caller, service string) {
	t.Helper()
	boom := resilience.MarkTransient(errors.New("down"))
	for i := 0; i < 3; i++ {
		c.Do(context.Background(), service, func() error { return boom })
	}
	if got := c.Breaker(service).State(); got != resilience.BreakerOpen {
		t.Fatalf("breaker should be open, is %v", got)
	}
}

func TestHealthzFlipsUnhealthyWhenBreakerOpens(t *testing.T) {
	clock := obs.NewVirtualClock()
	policy := resilience.DefaultPolicy()
	policy.Clock = clock
	caller := resilience.NewCaller(policy, resilience.DefaultBreakerConfig())
	reg := obs.NewRegistry()

	s := New(Config{
		Metrics:  reg.Snapshot,
		Breakers: caller.Status,
	})
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	// Healthy and ready while the (not yet created) breakers are quiet.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz before trip = %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before trip = %d", code)
	}

	tripBreaker(t, caller, "geocoder")

	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after trip = %d, want 503: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != StatusUnhealthy || len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "geocoder") {
		t.Fatalf("health body = %+v", h)
	}
	// The only breaker is open → majority open → not ready.
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "breakers open") {
		t.Fatalf("readyz after trip = %d %s", code, body)
	}
	// The breaker series appear on /metrics.
	if _, body := get("/metrics"); !strings.Contains(body, `copycat_breaker_state{service="geocoder"} 1`) {
		t.Fatalf("metrics missing open breaker:\n%s", body)
	}

	// Cooldown elapses on the virtual clock; a successful probe closes
	// the breaker and health recovers — all with zero real sleeping.
	clock.Advance(31 * time.Second)
	if _, err := caller.Do(context.Background(), "geocoder", func() error { return nil }); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz after recovery = %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatal("readyz should recover with the breaker")
	}
}

func TestHealthzSLOFastBurnAlert(t *testing.T) {
	clock := obs.NewVirtualClock()
	stream := obs.NewStream(clock)
	refresh := func(d time.Duration) {
		stream.Publish(obs.Event{Kind: obs.KindStage, Name: obs.SLOStage, Dur: d})
	}
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg.Snapshot, Stream: stream})
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	// Healthy traffic: fast refreshes, no burn.
	for i := 0; i < 100; i++ {
		refresh(2 * time.Millisecond)
		clock.Advance(time.Second)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatal("healthz should be ok under fast refreshes")
	}

	// Inject slow refreshes until the fast window burns hot.
	for i := 0; i < 100; i++ {
		refresh(40 * time.Millisecond)
		clock.Advance(time.Second)
	}
	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "fast-burn alert") {
		t.Fatalf("healthz under burn = %d %s", code, body)
	}
	if _, body := get("/slo"); !strings.Contains(body, `"fast_alert": true`) {
		t.Fatalf("/slo should report the alert: %s", body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, `copycat_slo_fast_alert{stage="suggest.refresh"} 1`) {
		t.Fatalf("/metrics should report the alert:\n%s", body)
	}

	// The fast window rolls clear after 6 virtual minutes of silence;
	// the slow window still burns → degraded, not unhealthy.
	clock.Advance(6 * time.Minute)
	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, "slow-burn alert") {
		t.Fatalf("healthz after fast window rolled = %d %s", code, body)
	}
	var h Health
	json.Unmarshal([]byte(body), &h)
	if h.Status != StatusDegraded {
		t.Fatalf("status = %q, want degraded", h.Status)
	}
}

func TestHealthDegradedRowRate(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("engine.rows_out").Add(100)
	reg.Counter("engine.degraded_rows").Add(10)
	h := EvaluateHealth(reg.Snapshot(), nil, nil)
	if h.Status != StatusDegraded || h.DegradedRowRate != 0.10 {
		t.Fatalf("health = %+v", h)
	}
	reg.Reset()
	reg.Counter("engine.rows_out").Add(100)
	reg.Counter("engine.degraded_rows").Add(2)
	if h := EvaluateHealth(reg.Snapshot(), nil, nil); h.Status != StatusOK {
		t.Fatalf("2%% degraded should be ok: %+v", h)
	}
}

func TestTraceStreamDumpAndFollow(t *testing.T) {
	stream := obs.NewStream(nil)
	publish := func(sp obs.SpanEvent) { stream.Publish(obs.Event{Kind: obs.KindSpan, Span: &sp}) }
	log := obs.NewDecisionLog()
	log.SetStream(stream)
	s := New(Config{Stream: stream, Decisions: log})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	publish(obs.SpanEvent{Name: "refresh", Cat: "stage", DurNs: 100})
	// Decisions share the stream's ring but are not span lines.
	log.Record(obs.Decision{Stage: "suggest.columns", Candidate: "zip", Action: obs.ActionSuggested})
	publish(obs.SpanEvent{Name: "execute", Cat: "engine", DurNs: 50})

	// Dump mode: buffered spans, then the response closes.
	resp, err := http.Get(ts.URL + "/trace/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump returned %d lines: %q", len(lines), body)
	}
	var ev obs.SpanEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Name != "refresh" {
		t.Fatalf("line 0 = %q (%v)", lines[0], err)
	}

	// Follow mode: a span published after the request starts is
	// delivered over the open response.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/trace/stream?follow=1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ { // drain the two buffered spans
		if !sc.Scan() {
			t.Fatalf("stream closed early: %v", sc.Err())
		}
	}
	go publish(obs.SpanEvent{Name: "live", DurNs: 7})
	if !sc.Scan() {
		t.Fatalf("no live span arrived: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Name != "live" {
		t.Fatalf("live line = %q (%v)", sc.Text(), err)
	}
	cancel() // client walks away; the handler unblocks via r.Context()
}

// TestTraceStreamFollowWithoutStream: with no stream configured nothing
// can ever arrive, so a follow request ends after its first (empty)
// pass instead of spinning until the client leaves.
func TestTraceStreamFollowWithoutStream(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace/stream?follow=1", nil))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("/trace/stream?follow=1 without a stream did not return")
	}
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("got %d %q, want an empty 200", rec.Code, rec.Body.String())
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	log := obs.NewDecisionLog()
	log.Record(obs.Decision{Stage: "suggest.columns", Candidate: "Geocoder→zip", Action: obs.ActionSuggested, Rank: 0})
	log.Record(obs.Decision{Stage: "suggest.columns", Candidate: "Reverse→phone", Action: obs.ActionPruned, Rank: -1})
	log.Record(obs.Decision{Stage: "feedback.columns", Candidate: "Geocoder→zip", Action: obs.ActionAccepted, Rank: 0})
	s := New(Config{Decisions: log})

	get := func(path string) []string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		body := strings.TrimSpace(rec.Body.String())
		if body == "" {
			return nil
		}
		return strings.Split(body, "\n")
	}
	if lines := get("/decisions"); len(lines) != 3 {
		t.Fatalf("unfiltered = %d lines", len(lines))
	}
	lines := get("/decisions?q=Geocoder")
	if len(lines) != 2 {
		t.Fatalf("filtered = %d lines: %v", len(lines), lines)
	}
	var d obs.Decision
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil || d.Candidate != "Geocoder→zip" {
		t.Fatalf("decision line = %q (%v)", lines[0], err)
	}
	if lines := get("/decisions?n=1"); len(lines) != 1 {
		t.Fatalf("n=1 = %d lines", len(lines))
	}
	if lines := get("/decisions?q=nothing-matches"); len(lines) != 0 {
		t.Fatalf("no-match = %d lines", len(lines))
	}
}

func TestPprofEndpoints(t *testing.T) {
	s := New(Config{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
		if rec.Body.Len() == 0 {
			t.Errorf("GET %s returned empty body", path)
		}
	}
}

func TestServerLifecycleGracefulShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("engine.rows_in").Inc()
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Metrics: reg.Snapshot})
	if err := s.Start(ctx, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("Addr should report the bound port")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := Lint(strings.NewReader(string(body))); err != nil {
		t.Fatalf("served metrics fail lint: %v", err)
	}
	// Double-start is rejected.
	if err := s.Start(ctx, "127.0.0.1:0"); err == nil {
		t.Fatal("second Start should error")
	}

	// Context cancel drains the server; Wait unblocks cleanly and the
	// port stops answering.
	cancel()
	done := make(chan error, 1)
	go func() { done <- s.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server should be down after ctx cancel")
	}
}

func TestReadyzDrainsOnShutdown(t *testing.T) {
	s := New(Config{})
	if err := s.Start(context.Background(), "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Mark draining the way ctx-cancel does, then observe readyz flip.
	s.draining.Store(true)
	resp, err := http.Get("http://" + s.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz while draining = %d %s", resp.StatusCode, body)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
}

func TestNilSourcesServeEmptyBodies(t *testing.T) {
	s := New(Config{})
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	// An empty system has no samples — that is the one lint failure we
	// accept from a nil-config server; the body itself is well-formed.
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatal("metrics should answer")
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz = %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatal("readyz should answer")
	}
	if code, _ := get("/trace/stream"); code != http.StatusOK {
		t.Fatal("trace dump should answer")
	}
	if code, _ := get("/decisions"); code != http.StatusOK {
		t.Fatal("decisions should answer")
	}
	if code, _ := get("/slo"); code != http.StatusOK {
		t.Fatal("slo should answer")
	}
}

func ExampleWriteExposition() {
	reg := obs.NewRegistry()
	reg.Counter("engine.rows_in").Add(2)
	var b strings.Builder
	WriteExposition(&b, reg.Snapshot(), nil, nil)
	fmt.Print(b.String())
	// Output:
	// # HELP copycat_engine_rows_in_total Cumulative count of engine.rows_in.
	// # TYPE copycat_engine_rows_in_total counter
	// copycat_engine_rows_in_total 2
}

// TestIncidentsEndpoints checks GET /incidents (list, newest first) and
// GET /incidents/{id} (full bundle / 404), plus the nil-recorder and
// empty-list shapes.
func TestIncidentsEndpoints(t *testing.T) {
	stream := obs.NewStream(obs.NewVirtualClock())
	rec := flight.New(stream, flight.Config{})
	stream.Publish(obs.Event{Kind: obs.KindLifecycle, Name: obs.EventBreaker, Session: "s1", Detail: "geocoder: open -> half-open"})
	id, ok := rec.Trigger(flight.TriggerBreakerOpen, "geocoder tripped", "s1", "acme")
	if !ok {
		t.Fatal("trigger should capture")
	}
	s := New(Config{Stream: stream})

	get := func(srv *Server, path string) (int, string) {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code, w.Body.String()
	}

	code, body := get(s, "/incidents")
	if code != http.StatusOK {
		t.Fatalf("GET /incidents = %d", code)
	}
	var list []flight.Summary
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("list is not JSON: %v\n%s", err, body)
	}
	if len(list) != 1 || list[0].ID != id || list[0].Trigger != flight.TriggerBreakerOpen {
		t.Fatalf("list = %+v", list)
	}

	code, body = get(s, "/incidents/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET /incidents/%s = %d", id, code)
	}
	var inc flight.Incident
	if err := json.Unmarshal([]byte(body), &inc); err != nil {
		t.Fatalf("bundle is not JSON: %v", err)
	}
	if inc.ID != id || inc.Session != "s1" || inc.Tenant != "acme" || len(inc.Events) != 1 {
		t.Fatalf("bundle = %+v", inc)
	}

	if code, _ = get(s, "/incidents/inc-999999-nope"); code != http.StatusNotFound {
		t.Fatalf("unknown incident = %d, want 404", code)
	}

	// No recorder wired: the list is an empty JSON array, not an error.
	empty := New(Config{})
	code, body = get(empty, "/incidents")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("nil recorder list = %d %q, want 200 []", code, body)
	}
	if code, _ = get(empty, "/incidents/x"); code != http.StatusNotFound {
		t.Fatalf("nil recorder fetch = %d, want 404", code)
	}
}
