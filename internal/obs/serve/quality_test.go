package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"copycat/internal/obs"
)

// sampleQuality fabricates a tracker with activity on several surfaces.
func sampleQuality() *obs.QualityTracker {
	q := obs.NewQualityTracker()
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackColumns, Accepted: true, Rank: 0, Rounds: 1})
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackColumns, Accepted: true, Rank: 2, Rounds: 3})
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackRows, Accepted: true, Rank: 0, Rounds: 0})
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackQueries, Rank: -1})
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackColumns, Rank: -1})
	q.Observe(obs.QualityEvent{Kind: obs.FeedbackColumns, Undo: true, Rank: -1})
	return q
}

func sampleQualityReport() QualityReport {
	q := sampleQuality()
	tenant := obs.NewQualityTracker()
	tenant.Observe(obs.QualityEvent{Kind: obs.FeedbackQueries, Accepted: true, Rank: 1, Rounds: 2})
	tenant.Observe(obs.QualityEvent{Kind: obs.FeedbackQueries, Rank: -1})
	return QualityReport{
		QualityStats: q.Snapshot(),
		Tenants: map[string]obs.QualityStats{
			"alice": q.Snapshot(),
			"bob":   tenant.Snapshot(),
		},
	}
}

func TestQualityEndpoint(t *testing.T) {
	s := New(Config{Quality: sampleQualityReport})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/quality", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /quality = %d\n%s", rec.Code, rec.Body)
	}
	var rep QualityReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/quality not JSON: %v\n%s", err, rec.Body)
	}
	if rep.TotalAccepts != 3 || rep.TotalRejects != 2 {
		t.Errorf("host stats = %d accepts / %d rejects, want 3/2", rep.TotalAccepts, rep.TotalRejects)
	}
	if want := 3.0 / 5.0; rep.AcceptanceRate != want {
		t.Errorf("acceptance rate = %.3f, want %.3f", rep.AcceptanceRate, want)
	}
	if len(rep.Tenants) != 2 || rep.Tenants["bob"].TotalAccepts != 1 {
		t.Errorf("tenant breakdown wrong: %+v", rep.Tenants)
	}
	// Field names are part of the contract with dashboards.
	body := rec.Body.String()
	for _, want := range []string{
		`"acceptance_rate"`, `"accepted_rank_histogram"`, `"mean_rounds_to_accept"`, `"tenants"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/quality body missing %s:\n%s", want, body)
		}
	}
}

func TestQualityEndpointUnconfigured(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/quality", nil))
	if rec.Code != 404 {
		t.Fatalf("GET /quality without a source = %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "no quality source configured") {
		t.Errorf("404 body should say why: %s", rec.Body)
	}
}

// TestMetricsCarriesQualityFamilies: with a quality source wired in,
// /metrics carries both the host-level quality.* families (folded into
// the snapshot) and the tenant-labelled series — and the combined
// exposition still passes the lint.
func TestMetricsCarriesQualityFamilies(t *testing.T) {
	q := sampleQuality()
	metrics := func() obs.Snapshot {
		snap := sampleSnapshot()
		q.Snapshot().Fold(snap)
		return snap
	}
	s := New(Config{Metrics: metrics, Quality: sampleQualityReport})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	if err := Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition with quality families fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE copycat_quality_accepts_total counter",
		"copycat_quality_accepts_total 3",
		"copycat_quality_rejects_total 2",
		"copycat_quality_accepts_undone_total 1",
		"copycat_quality_columns_accepted_total 2",
		"copycat_quality_accepted_rank_0_total 2",
		"copycat_quality_accepted_rank_2_total 1",
		"# TYPE copycat_quality_acceptance_rate gauge",
		"copycat_quality_acceptance_rate 0.6",
		"# TYPE copycat_tenant_feedback_accepts_total counter",
		`copycat_tenant_feedback_accepts_total{tenant="alice"} 3`,
		`copycat_tenant_feedback_accepts_total{tenant="bob"} 1`,
		`copycat_tenant_feedback_rejects_total{tenant="bob"} 1`,
		"# TYPE copycat_tenant_acceptance_rate gauge",
		`copycat_tenant_acceptance_rate{tenant="bob"} 0.5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// Tenants are emitted in sorted order so scrapes are deterministic.
	if strings.Index(body, `tenant="alice"`) > strings.Index(body, `tenant="bob"`) {
		t.Error("tenant series not sorted")
	}
}

// TestQualityExpositionEmptyWithoutTenants: a single-session system has
// no tenant breakdown; the writer must emit nothing rather than empty
// families (which the lint rejects).
func TestQualityExpositionEmptyWithoutTenants(t *testing.T) {
	var b strings.Builder
	if err := writeQualityExposition(&b, QualityReport{QualityStats: sampleQuality().Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("tenant-less report produced exposition output:\n%s", b.String())
	}
}
