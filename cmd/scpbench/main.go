// Command scpbench regenerates every experiment in the reproduction's
// DESIGN.md index — the paper's figures (F1–F4) re-run as measurable
// scenarios, the §5 quantitative claims (E1 keystrokes, E2 feedback
// convergence), the learner curves (E3 wrapper induction, E4 type
// recognition), the Steiner scale-up (E5), the full demo task (E6), and
// the two design ablations (A1 semantic types, A2 exact vs approximate
// Steiner).
//
//	scpbench -exp all
//	scpbench -exp keystrokes,convergence
//	scpbench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"copycat"
)

// experiment is one runnable entry of the harness.
type experiment struct {
	name string
	desc string
	run  func() error
}

var experiments = []experiment{
	{"f1", "Figure 1: import mode — paste two shelters, row auto-completion + column typing", expF1},
	{"f2", "Figure 2: integration mode — suggested Zip column with tuple explanation", expF2},
	{"f3", "Figure 3: architecture — full pipeline smoke across all modules", expF3},
	{"f4", "Figure 4: source graph — associations and top-k connecting queries", expF4},
	{"keystrokes", "E1: SCP vs manual keystrokes (the Karma ~75% savings claim)", expKeystrokes},
	{"convergence", "E2: MIRA feedback convergence — single query and query family", expConvergence},
	{"wrapper", "E3: examples needed vs page complexity", expWrapper},
	{"types", "E4: semantic type recognition vs training size", expTypes},
	{"steiner", "E5: exact vs SPCSH Steiner — runtime and quality vs graph size", expSteiner},
	{"demo", "E6: full §8 demo task across site styles", expDemo},
	{"ablation-types", "A1: association discovery with vs without semantic types", expAblationTypes},
	{"ablation-steiner", "A2: exact vs approximate Steiner inside the integration learner", expAblationSteiner},
	{"matcher", "A3: approximate schema matcher on renamed, untyped columns (§4.1)", expMatcher},
	{"faults", "R1: suggestion availability and latency vs injected service fault rate", expFaults},
	{"overhead", "O1: observability overhead — traced, recorded and served arms vs plain on the cold refresh loop (ABBA), per-stage latency, Chrome trace export", expOverhead},
	{"refresh", "P1: incremental refresh — warm (plan-cached) vs cold loop work counts, allocs, speedup, and warm ≡ cold", expRefresh},
	{"capacity", "C1: multi-tenant capacity — sessions vs p99/availability under a fixed memory budget with LRU eviction", expCapacity},
	{"durability", "D1: durable session store — evict/reload cost, on-disk compression ratio, crash recovery of the whole fleet", expDurability},
	{"accuracy", "Q1: suggestion-quality accuracy over the scenario corpus — precision@k, recall, MRR, feedback rounds to convergence", expAccuracy},
	{"scale", "S1: scale-out suggestion serving — first-answer p50/p99, allocs/op and SPCSH-vs-exact agreement on 1x/10x/100x worlds", expScale},
}

// Flags read by the experiments and by finish.
var (
	traceFile     string       // -trace: Chrome trace_event JSON destination
	benchOut      string       // -bench-out: the experiment's report
	statsMode     bool         // -stats: workspace-driven experiments print executor stats
	baselineFile  string       // -baseline: committed report the gates are enforced against
	scaleGridFlag = "1,10,100" // -scale-grid: world sizes the scale experiment sweeps

	// jsonReport is the last report finish produced; marshaled to the
	// real stdout under -json after all experiments ran.
	jsonReport any
)

// printStats renders the executor statistics accumulated by a run.
func printStats(snap copycat.ExecStats) {
	if !statsMode {
		return
	}
	fmt.Println("\nexecutor stats (ExecCtx instrumentation):")
	fmt.Print(snap)
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.BoolVar(&statsMode, "stats", false, "print per-operator executor stats (rows in/out, service calls, cache hits, trees pruned) after workspace-driven experiments")
	flag.StringVar(&traceFile, "trace", "", "overhead: write a Chrome trace_event JSON of one traced pipeline pass to this file")
	flag.StringVar(&benchOut, "bench-out", "", "write the experiment's report (JSON: env, gate verdicts, result) to this file")
	jsonMode := flag.Bool("json", false, "emit the final report as JSON on stdout (tables go to stderr)")
	flag.StringVar(&baselineFile, "baseline", "", "enforce the experiment's gates against this committed report (JSON); a failing gate fails the run")
	flag.StringVar(&scaleGridFlag, "scale-grid", scaleGridFlag, "scale: comma-separated world-size multipliers to sweep (CI uses the reduced 1,10 grid)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	serveAddr := flag.String("serve", "", "drive a traced demo session and serve its live telemetry on this address (e.g. 127.0.0.1:9464) instead of running experiments")
	serveWait := flag.Duration("serve-wait", 0, "with -serve: shut the telemetry server down after this long (0 = until SIGINT/SIGTERM)")
	serveSessions := flag.Int("serve-sessions", 0, "with -serve: host a multi-tenant session manager capped at this many sessions (two tenants pre-seeded) instead of a single demo session")
	storeDir := flag.String("store-dir", "", "with -serve-sessions: back the host with a durable file store at this directory — existing sessions are recovered on boot and the fleet is checkpointed to disk on shutdown")
	serveFaults := flag.Float64("serve-faults", 0, "with -serve: wrap the demo session's services in the deterministic fault injector at this transient-error rate and drive refreshes until a breaker opens, so the flight recorder captures a real incident before serving")
	incidentDir := flag.String("incident-dir", "", "with -serve: persist flight-recorder incident bundles to this directory (bounded; oldest pruned)")
	analyzeBundle := flag.String("analyze-incident", "", "render the post-mortem timeline of an on-disk incident bundle (JSON) and exit")
	flag.Parse()
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scpbench: "+format+"\n", args...)
		os.Exit(1)
	}
	if *analyzeBundle != "" {
		if err := analyzeIncident(*analyzeBundle); err != nil {
			die("-analyze-incident: %v", err)
		}
		return
	}
	if *serveAddr != "" {
		if err := runTelemetryServer(*serveAddr, *serveWait, *serveSessions, *storeDir, *serveFaults, *incidentDir); err != nil {
			die("-serve: %v", err)
		}
		return
	}
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-18s %s\n", e.name, e.desc)
		}
		return
	}

	// Under -json the human-readable tables move to stderr so stdout
	// carries exactly one machine-readable JSON document.
	realOut := os.Stdout
	if *jsonMode {
		os.Stdout = os.Stderr
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			die("%v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			die("%v", err)
		}
	}
	want := map[string]bool{}
	for _, n := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(n)] = true
	}
	ran := 0
	var failed error
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		fmt.Printf("\n================ %s ================\n%s\n\n", e.name, e.desc)
		ran++
		if err := e.run(); err != nil {
			failed = fmt.Errorf("%s: %w", e.name, err)
			break
		}
	}
	pprof.StopCPUProfile()
	if ran == 0 {
		die("no experiment matched %q (use -list)", *exp)
	}
	if *memprofile != "" {
		pf, err := os.Create(*memprofile)
		if err != nil {
			die("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(pf); err != nil {
			die("%v", err)
		}
		pf.Close()
	}
	// A failing experiment still emits the report its gates wrote.
	if *jsonMode && jsonReport != nil {
		enc := json.NewEncoder(realOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport); err != nil {
			die("%v", err)
		}
	}
	if failed != nil {
		die("%v", failed)
	}
}

// printTable renders rows as an aligned table with a header.
func printTable(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Printf("| %-*s ", widths[i], c)
		}
		fmt.Println("|")
	}
	line(header)
	for i := range header {
		fmt.Print("|", strings.Repeat("-", widths[i]+2))
	}
	fmt.Println("|")
	for _, r := range rows {
		line(r)
	}
}

func f(format string, v float64) string { return fmt.Sprintf(format, v) }

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
