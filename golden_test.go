package copycat_test

// Shape goldens for the two machine-readable observability surfaces:
// the /metrics series set (family, type, label keys — not values) of a
// standalone system and of a multi-tenant host, and the JSON key set of
// an incident bundle, attribution maps included. Values move with
// timing and workload; the shapes are the contract scrapers and
// post-mortem tooling depend on, so any change to them must show up as
// a golden diff. Regenerate with `go test -run Golden -update .`.

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"copycat"
	"copycat/internal/obs/flight"
)

var updateGoldens = flag.Bool("update", false, "rewrite the testdata goldens")

// checkGolden compares lines against testdata/<name>, or rewrites it
// under -update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s changed:\n%s", name, lineDiff(strings.Split(string(want), "\n"), strings.Split(got, "\n")))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got []string) string {
	in := func(set []string) map[string]bool {
		m := map[string]bool{}
		for _, l := range set {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range want {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range got {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}

// seriesSet reduces an exposition body to one line per family: name,
// declared type, and the sorted union of label keys its series carry.
func seriesSet(t *testing.T, body string) []string {
	t.Helper()
	types := map[string]string{}
	keys := map[string]map[string]bool{}
	var names []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			keys[f[2]] = map[string]bool{}
			names = append(names, f[2])
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := strings.Fields(line)[0]
		name, labels, _ := strings.Cut(series, "{")
		fam := ""
		for n := range types {
			if strings.HasPrefix(name, n) && len(n) > len(fam) {
				fam = n
			}
		}
		if fam == "" {
			t.Fatalf("series %q has no declared family", series)
		}
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys[fam][k] = true
			}
		}
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		ks := make([]string, 0, len(keys[n]))
		for k := range keys[n] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out = append(out, n+" "+types[n]+" "+strings.Join(ks, ","))
	}
	sort.Strings(out)
	return out
}

// scrape fetches one endpoint of a running telemetry server.
func scrape(t *testing.T, srv *copycat.TelemetryServer, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// feedbackRound refreshes column suggestions, rejects the last and
// accepts the first, so the quality families carry real counts.
func feedbackRound(t *testing.T, sys *copycat.System) {
	t.Helper()
	comps := sys.Workspace.RefreshColumnSuggestions()
	if len(comps) < 2 {
		t.Fatalf("refresh returned %d completions, want >= 2", len(comps))
	}
	if err := sys.Workspace.RejectColumn(len(comps) - 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Workspace.AcceptColumn(0); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenStandaloneMetricsSeries(t *testing.T) {
	sys := copycat.NewDemoSystem(hostWorldConfig())
	sys.EnableTracing()
	if err := seedSystem(sys); err != nil {
		t.Fatal(err)
	}
	feedbackRound(t, sys)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := sys.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_standalone.golden", seriesSet(t, scrape(t, srv, "/metrics")))
}

// goldenHost builds a traced two-tenant host whose one-resident budget
// forces evictions, and runs a feedback round in each tenant's session.
func goldenHost(t *testing.T) *copycat.Host {
	t.Helper()
	host := copycat.NewDemoHost(hostWorldConfig(), copycat.SessionConfig{
		MaxResident:   1,
		EnableTracing: true,
	})
	for _, tenant := range []string{"alice", "bob"} {
		sys, err := host.Create(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if err := seedSystem(sys); err != nil {
			t.Fatal(err)
		}
		feedbackRound(t, sys)
		sys.Release()
	}
	if st := host.Manager.Stats(); st.Evictions == 0 {
		t.Fatalf("a one-resident budget over two sessions evicted nothing: %+v", st)
	}
	return host
}

func TestGoldenHostMetricsSeries(t *testing.T) {
	host := goldenHost(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := host.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_host.golden", seriesSet(t, scrape(t, srv, "/metrics")))
}

// mapPaths are the bundle objects keyed by data (session IDs, tenant
// labels, metric names): their keys collapse to "*".
var mapPaths = map[string]bool{
	"pre.counters": true, "pre.gauges": true, "pre.histograms": true,
	"post.counters": true, "post.gauges": true, "post.histograms": true,
	"counter_deltas": true, "sessions": true, "tenants": true,
}

// keySet walks a decoded JSON document and records every key path.
func keySet(v any, path string, out map[string]bool) {
	join := func(k string) string {
		if path == "" {
			return k
		}
		return path + "." + k
	}
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := join(k)
			if mapPaths[path] {
				p = join("*")
			}
			out[p] = true
			keySet(child, p, out)
		}
	case []any:
		for _, child := range v {
			keySet(child, path+"[]", out)
		}
	}
}

func TestGoldenIncidentBundleKeys(t *testing.T) {
	host := goldenHost(t)
	rec := host.Manager.Flight()
	id, ok := rec.Trigger(flight.TriggerSignal, "golden capture", "", "")
	if !ok {
		t.Fatal("sigquit trigger did not capture")
	}
	inc, _ := rec.Incident(id)
	data, err := json.Marshal(inc)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	keySet(doc, "", set)
	for _, want := range []string{"sessions.*.spans", "sessions.*.decisions", "tenants.*.events"} {
		if !set[want] {
			t.Errorf("bundle lacks %s attribution", want)
		}
	}
	lines := make([]string, 0, len(set))
	for k := range set {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	checkGolden(t, "incident_keys.golden", lines)
}
