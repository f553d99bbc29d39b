package main

// The overhead experiment (O1 in EXPERIMENTS.md): what each
// observability mechanism costs the cold suggestion-refresh loop. One
// system runs four arms, each switching on one mechanism over the arm
// before it — plain (no trace, event stream detached), traced (spans
// recorded), recorded (spans, decisions and lifecycle events published
// on the stream: ring retention, SLO windows, the flight recorder) and
// served (/metrics scraped at 20Hz). Every round runs the arms in ABBA
// order — plain, traced, recorded, served, served, recorded, traced,
// plain — so drift over the run hits each pair of neighbours equally,
// and yields one CPU-time ratio per arm against its neighbour. An arm's
// point estimate is the median of its per-round ratios; it is gated
// against the arm's budget, and the interquartile range is reported
// beside it.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"copycat"
	"copycat/internal/obs/serve"
)

// Loop size and ABBA round count. Short loops compare arms within
// ~0.1s of each other, so passing load on a shared box hits both sides
// of a ratio: for the same work, 10 rounds of 30 refreshes scattered
// the medians by several percent on a 2-CPU Xeon, 60 rounds of 5 by
// under 0.5%.
const (
	overheadRefreshes = 5
	overheadRounds    = 60
)

// scrapeInterval paces the scraper in the served arm: one scrape every
// 50ms is already 20–300× more aggressive than a production Prometheus
// (1–15s per scrape), so the overhead measured under it is a safe upper
// bound, while flat-out scraping would measure CPU contention between
// the encoder and the candidate executor, which no deployment sees.
const scrapeInterval = 50 * time.Millisecond

// scrapeCount is how many sequential /metrics scrapes the scrape-cost
// measurement averages over.
const scrapeCount = 100

// overheadArms lists the arms in loop order. Each is measured against
// the arm before it and may cost at most its budget.
var overheadArms = []struct {
	name   string
	layer  string
	budget float64
}{
	{"plain", "", 0},
	{"traced", "trace", 0.10},
	{"recorded", "flight", 0.02},
	{"served", "serve", 0.10},
}

// armReport is one arm's cost against the arm before it.
type armReport struct {
	Arm          string  `json:"arm"`
	Base         string  `json:"base,omitempty"`
	CPUNs        int64   `json:"cpu_ns"`                  // CPU time of all the arm's loops
	OverheadFrac float64 `json:"overhead_frac,omitempty"` // median per-round ratio − 1
	Q1Frac       float64 `json:"q1_frac,omitempty"`       // first quartile of the ratios − 1
	Q3Frac       float64 `json:"q3_frac,omitempty"`       // third quartile of the ratios − 1
	Budget       float64 `json:"budget,omitempty"`
}

// overheadReport is the result of the BENCH_3.json report.
type overheadReport struct {
	Refreshes         int                     `json:"refreshes"`
	Pairs             int                     `json:"pairs"`
	Arms              []armReport             `json:"arms"`
	ConcurrentScrapes int64                   `json:"concurrent_scrapes"` // scrapes landing in served loops
	ScrapeMeanNs      int64                   `json:"scrape_mean_ns"`     // sequential scrape cost
	ScrapeMaxNs       int64                   `json:"scrape_max_ns"`
	ScrapeBytes       int                     `json:"scrape_bytes"` // /metrics body size
	Series            int                     `json:"series"`       // sample lines in the body
	RetainedEvents    int                     `json:"retained_events"`
	RetainedSpans     int                     `json:"retained_spans"`
	RetainedDecisions int                     `json:"retained_decisions"`
	Captured          int64                   `json:"captured"` // incidents captured (expected 0)
	Spans             int                     `json:"spans"`    // spans in the exported pipeline trace
	Metrics           copycat.MetricsSnapshot `json:"metrics"`
	TraceFile         string                  `json:"trace_file,omitempty"`
}

// importShelters copies the first two shelters off the browser's page,
// pastes them into the active tab and accepts the generalized rows: the
// opening move of every demo scenario.
func importShelters(ws *copycat.Workspace, b *copycat.Browser, w *copycat.World) error {
	s0, s1 := w.Shelters[0], w.Shelters[1]
	sel, err := b.CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		return err
	}
	if err := ws.Paste(sel); err != nil {
		return err
	}
	return ws.AcceptRows()
}

// seed drives a session to integration mode: paste two shelters,
// accept the generalized rows, import two rows of the contacts sheet
// as a second source (so the Steiner search has two terminals to
// connect), and switch modes.
func seed(sys *copycat.System) error {
	ws := sys.Workspace
	if err := importShelters(ws, sys.OpenBrowser(sys.ShelterSite(copycat.StyleTable)), sys.World); err != nil {
		return err
	}
	sheetDoc := sys.World.ContactsSpreadsheet()
	ws.SelectTab("Contacts")
	if err := ws.Paste(copycat.Selection{Cells: sheetDoc.Grid()[1:3], Doc: sheetDoc}); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	ws.SelectTab("Sheet1")
	ws.SetMode(copycat.ModeIntegration)
	return nil
}

// seedSession creates a session for tenant on host and seeds it,
// returning its id and the suggestion count of its first refresh.
func seedSession(host *copycat.Host, tenant string) (id string, suggestions int, err error) {
	sys, err := host.Create(tenant)
	if err != nil {
		return "", 0, err
	}
	defer sys.Release()
	if err := seed(sys); err != nil {
		return "", 0, err
	}
	if suggestions = len(sys.Workspace.RefreshColumnSuggestions()); suggestions == 0 {
		return "", 0, fmt.Errorf("seeded session for %s produced no suggestions", tenant)
	}
	return sys.Session.ID(), suggestions, nil
}

// pipelineSetup builds a demo system over cfg and seeds it, tracing
// from the start when traced is set so the learn stages land in the
// trace.
func pipelineSetup(cfg copycat.WorldConfig, traced bool) (*copycat.System, error) {
	sys := copycat.NewDemoSystem(cfg)
	if traced {
		sys.EnableTracing()
	}
	return sys, seed(sys)
}

// overheadLoop runs overheadRefreshes suggestion refreshes and returns
// the CPU time the process spent on them.
func overheadLoop(sys *copycat.System) (time.Duration, error) {
	start := cpuTime()
	for i := 0; i < overheadRefreshes; i++ {
		if comps := sys.Workspace.RefreshColumnSuggestions(); len(comps) == 0 {
			return 0, fmt.Errorf("suggestion refresh returned no completions")
		}
	}
	return cpuTime() - start, nil
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func expOverhead() error {
	sys, err := pipelineSetup(copycat.DefaultWorldConfig(), true)
	if err != nil {
		return err
	}
	// Cold refreshes: the plan-cached warm loop runs 5 candidates per 30
	// refreshes, too little work to resolve a 2% budget.
	sys.Workspace.PlanCache = nil
	ws := sys.Workspace
	stream := ws.Stream()
	rec := sys.FlightRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := sys.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		return err
	}
	metricsURL := "http://" + srv.Addr() + "/metrics"
	scrape := func() ([]byte, error) {
		resp, err := http.Get(metricsURL)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}

	var scrapes atomic.Int64
	arm := func(i int) (time.Duration, error) {
		sys.DisableTracing()
		ws.SetStream(nil)
		if i >= 1 {
			sys.EnableTracing()
		}
		if i >= 2 {
			ws.SetStream(stream)
		}
		runtime.GC() // every loop starts from the same collected heap
		if i == 3 {  // served: scrape on the cadence while the loop runs
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				tick := time.NewTicker(scrapeInterval)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if _, err := scrape(); err == nil {
							scrapes.Add(1)
						}
					}
				}
			}()
			defer func() { close(stop); <-done }()
		}
		return overheadLoop(sys)
	}
	totals, ratios, err := abba(arm)
	if err != nil {
		return err
	}

	report := overheadReport{
		Refreshes:         overheadRefreshes,
		Pairs:             overheadRounds,
		ConcurrentScrapes: scrapes.Load(),
		Captured:          rec.Captured(),
	}
	report.RetainedEvents, report.RetainedSpans, report.RetainedDecisions = rec.Retained()
	if report.RetainedSpans == 0 || report.RetainedDecisions == 0 {
		return fmt.Errorf("recorder retained %d spans and %d decisions — the recorded arm measured nothing",
			report.RetainedSpans, report.RetainedDecisions)
	}
	var gates []gate
	rows := [][]string{{"suggestion refreshes per loop", fmt.Sprint(overheadRefreshes)}, {"ABBA rounds", fmt.Sprint(overheadRounds)}}
	for i, a := range overheadArms {
		ar := armReport{Arm: a.name, CPUNs: totals[i].Nanoseconds()}
		row := []string{a.name + " loops (CPU time)", totals[i].String()}
		if i > 0 {
			ar.Base, ar.Budget = overheadArms[i-1].name, a.budget
			ar.OverheadFrac = percentile(ratios[i], 0.50) - 1
			ar.Q1Frac = percentile(ratios[i], 0.25) - 1
			ar.Q3Frac = percentile(ratios[i], 0.75) - 1
			row[1] += fmt.Sprintf("; %+.1f%% over %s (IQR %+.1f%% … %+.1f%%, budget %.0f%%)",
				100*ar.OverheadFrac, ar.Base, 100*ar.Q1Frac, 100*ar.Q3Frac, 100*a.budget)
			gates = append(gates, gate{a.layer, "arms.arm=" + a.name + ".overhead_frac", atMost, a.budget})
		}
		report.Arms = append(report.Arms, ar)
		rows = append(rows, row)
	}

	// Sequential scrape cost, with the last body linted and sized.
	var total, worst time.Duration
	var body []byte
	for i := 0; i < scrapeCount; i++ {
		start := time.Now()
		if body, err = scrape(); err != nil {
			return err
		}
		d := time.Since(start)
		total += d
		worst = max(worst, d)
	}
	if err := serve.Lint(strings.NewReader(string(body))); err != nil {
		return fmt.Errorf("/metrics body fails exposition lint: %w", err)
	}
	report.ScrapeMeanNs, report.ScrapeMaxNs, report.ScrapeBytes = (total / scrapeCount).Nanoseconds(), worst.Nanoseconds(), len(body)
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			report.Series++
		}
	}

	// One traced pass over the whole pipeline for the trace export: a
	// paste on a new tab (learn), a refresh (search, execute), and a
	// reject (rank).
	sys.EnableTracing()
	ws.SetStream(stream)
	w := sys.World
	ws.SelectTab("Mixed")
	if err := ws.Paste(copycat.Selection{Cells: [][]string{{w.Shelters[0].Name, w.Contacts[0].Org}}}); err != nil {
		return err
	}
	ws.SelectTab("Sheet1")
	if comps := ws.RefreshColumnSuggestions(); len(comps) > 0 {
		if err := ws.RejectColumn(len(comps) - 1); err != nil {
			return err
		}
	}
	report.Spans = ws.Trace().Len()
	report.Metrics = sys.Metrics()
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := sys.TraceTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		report.TraceFile = traceFile
	}

	rows = append(rows,
		[]string{"concurrent scrapes in served loops", fmt.Sprint(report.ConcurrentScrapes)},
		[]string{"scrape cost (mean / max)", fmt.Sprintf("%s / %s", time.Duration(report.ScrapeMeanNs), worst)},
		[]string{"/metrics body", fmt.Sprintf("%d bytes, %d series", report.ScrapeBytes, report.Series)},
		[]string{"retained (events / spans / decisions)", fmt.Sprintf("%d / %d / %d", report.RetainedEvents, report.RetainedSpans, report.RetainedDecisions)},
		[]string{"incidents captured", fmt.Sprint(report.Captured)},
		[]string{"spans in the pipeline trace", fmt.Sprint(report.Spans)},
	)
	printTable([]string{"measure", "value"}, rows)
	fmt.Println("\nper-stage latency (unified metrics registry):")
	for _, name := range sortedKeys(report.Metrics.Histograms) {
		h := report.Metrics.Histograms[name]
		fmt.Printf("  %-32s n=%-6d p50=%-12s p95=%-12s p99=%s\n", name, h.Count, h.P50(), h.P95(), h.P99())
	}
	if report.TraceFile != "" {
		fmt.Printf("\ntrace: %d spans written to %s (load in chrome://tracing)\n", report.Spans, report.TraceFile)
	}
	printStats(sys.Stats())

	gates = append(gates,
		gate{"serve", "concurrent_scrapes", atLeast, 1},
		gate{"workspace", "refreshes", sameAsBase, 0},
		gate{"workspace", "pairs", sameAsBase, 0},
	)
	return finish("overhead", report, gates)
}

// abba warms every arm up once — filling the service cache and the
// HTTP keep-alive connection, so no arm pays one-time costs — then
// runs overheadRounds ABBA rounds. It returns each arm's total loop
// time and its per-round ratios over the arm before it.
func abba(arm func(i int) (time.Duration, error)) (totals []time.Duration, ratios [][]float64, err error) {
	// One P, charged in process CPU time: an arm adds CPU work, and so
	// neither scheduler spinning nor co-tenant load enters the ratio
	// (nor, a limit, lock contention between candidate workers).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := len(overheadArms)
	for i := 0; i < n; i++ {
		if _, err := arm(i); err != nil {
			return nil, nil, err
		}
	}
	totals, ratios = make([]time.Duration, n), make([][]float64, n)
	for r := 0; r < overheadRounds; r++ {
		round := make([]time.Duration, n)
		for k := 0; k < 2*n; k++ {
			i := k
			if k >= n {
				i = 2*n - 1 - k
			}
			d, err := arm(i)
			if err != nil {
				return nil, nil, err
			}
			round[i] += d
		}
		for i := range round {
			totals[i] += round[i]
			if i > 0 {
				ratios[i] = append(ratios[i], float64(round[i])/float64(round[i-1]))
			}
		}
	}
	return totals, ratios, nil
}
