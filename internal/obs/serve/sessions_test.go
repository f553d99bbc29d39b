package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"copycat/internal/catalog"
	"copycat/internal/modellearn"
	"copycat/internal/session"
	"copycat/internal/workspace"
)

// emptyFactory builds minimal session states (no services, no world) —
// enough for lifecycle plumbing without the demo stack.
func emptyFactory() (*session.State, error) {
	cat := catalog.New()
	types := modellearn.NewLibrary()
	return &session.State{Workspace: workspace.New(cat, types), Catalog: cat, Types: types}, nil
}

func newSessionTestServer(t *testing.T, cfg session.Config) (*session.Manager, *httptest.Server) {
	t.Helper()
	cfg.Factory = emptyFactory
	m := session.NewManager(cfg)
	srv := New(Config{Host: m, Metrics: m.MetricsSnapshot, Stream: m.Stream()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return m, ts
}

func do(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestSessionsLifecycleOverHTTP walks the full satellite scenario the
// CI smoke also runs: create to the admission cap, watch /readyz flip
// to 503 under the induced overload, destroy to recover, and
// evict/attach a session through its snapshot.
func TestSessionsLifecycleOverHTTP(t *testing.T) {
	_, ts := newSessionTestServer(t, session.Config{MaxSessions: 2})

	// Create to the cap.
	var first session.Info
	for i := 0; i < 2; i++ {
		code, body := do(t, "POST", ts.URL+"/sessions?tenant=alice")
		if code != http.StatusCreated {
			t.Fatalf("create %d: code %d body %s", i, code, body)
		}
		if i == 0 {
			if err := json.Unmarshal([]byte(body), &first); err != nil {
				t.Fatal(err)
			}
		}
	}
	if first.ID == "" || first.Tenant != "alice" {
		t.Fatalf("create response: %+v", first)
	}

	// The table is full: creates shed with 503 and readiness flips.
	if code, body := do(t, "POST", ts.URL+"/sessions"); code != http.StatusServiceUnavailable {
		t.Fatalf("create over cap: code %d body %s", code, body)
	}
	if code, body := do(t, "GET", ts.URL+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "shedding") {
		t.Fatalf("readyz under overload: code %d body %s", code, body)
	}

	// List shows both sessions and the shedding stats.
	var list sessionList
	if code, body := do(t, "GET", ts.URL+"/sessions"); code != http.StatusOK {
		t.Fatalf("list: code %d", code)
	} else if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 2 || !list.Stats.Shedding || list.Stats.Rejected != 1 {
		t.Fatalf("list: %+v", list)
	}

	// Evict → attach reloads from the snapshot.
	if code, body := do(t, "POST", ts.URL+"/sessions/"+first.ID+"/evict"); code != http.StatusOK ||
		!strings.Contains(body, `"resident": false`) {
		t.Fatalf("evict: code %d body %s", code, body)
	}
	if code, body := do(t, "POST", ts.URL+"/sessions/"+first.ID+"/attach"); code != http.StatusOK ||
		!strings.Contains(body, `"resident": true`) {
		t.Fatalf("attach: code %d body %s", code, body)
	}

	// Destroy frees capacity; readiness recovers.
	if code, _ := do(t, "DELETE", ts.URL+"/sessions/"+first.ID); code != http.StatusNoContent {
		t.Fatalf("delete: code %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after destroy: code %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/sessions/"+first.ID+"/attach"); code != http.StatusNotFound {
		t.Fatalf("attach destroyed: code %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/sessions/nope/evict"); code != http.StatusNotFound {
		t.Fatalf("evict unknown: code %d", code)
	}
}

// TestMetricsPerTenantSeriesLint checks that /metrics gains labelled
// per-session families alongside the host-level ones and that the
// combined exposition passes the strict linter cmd/expolint embeds.
func TestMetricsPerTenantSeriesLint(t *testing.T) {
	m, ts := newSessionTestServer(t, session.Config{})
	for _, tenant := range []string{"alice", "bob"} {
		s, err := m.Create(tenant)
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	if err := m.Evict(m.List()[0].ID); err != nil {
		t.Fatal(err)
	}

	code, body := do(t, "GET", ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		`copycat_sessions_count 2`,
		`copycat_sessions_evictions_total 1`,
		`copycat_session_resident{session="s000001",tenant="alice"} 0`,
		`copycat_session_resident{session="s000002",tenant="bob"} 1`,
		`copycat_session_reloads_total{session="s000001",tenant="alice"}`,
		`copycat_tenant_resident_sessions{tenant="alice"} 0`,
		`copycat_tenant_resident_sessions{tenant="bob"} 1`,
		`copycat_sessions_store_snapshots 1`,
		`copycat_sessions_store_compression_ratio`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
}

func TestSessionsWithoutHost(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := do(t, "GET", ts.URL+"/sessions"); code != http.StatusNotFound {
		t.Fatalf("sessions without host: code %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/sessions"); code != http.StatusNotFound {
		t.Fatalf("create without host: code %d", code)
	}
}
