// Command perfbench is CopyCat's end-to-end benchmark: closed-loop
// workloads over the paste → generalize → type → suggest → feedback
// loop, the 100x-world query search, and a durable multi-tenant host
// under eviction churn. Every op's output is checked against ground
// truth. An untraced run reports the end-to-end metrics; a traced run
// (-trace 1) times each call the benchmark makes into a layer, nests
// the program's own stage spans under those calls, and reports
// per-layer metrics.
//
// Run it through run.sh, which builds it from the enclosing checkout:
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 5
//
// The text report goes to standard output; its last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Workload names.
const (
	wInteractive = "interactive"
	wScale       = "scale-100x"
	wChurn       = "host-churn"
)

var workloadNames = []string{wInteractive, wScale, wChurn}

// setupRuns is how many times a run builds its workload's state; the
// median of the set-up CPU times is setup_s, and the last state is
// timed.
const setupRuns = 9

// screener is a workload that screens its inputs once, after the timed
// set-ups, and leaves out of the draw those that hit a known defect of
// the program, so no timed op fails by design. excluded names them for
// the report.
type screener interface {
	screen() error
	excluded() []string
}

func newWorkload(name, tmp string) (workload, error) {
	switch name {
	case wInteractive:
		return newInteractive(), nil
	case wScale:
		return newScale(), nil
	case wChurn:
		return newChurn(tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string
	commit   string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are drawn from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span files, reports and temporary stores")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the benchmarked program was built from, for the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workload == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fs.Usage()
		return 2
	}
	o.traced = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	var reps []*report
	for _, name := range names {
		ro := o
		ro.workload = name
		var runs []bool
		if o.workload == "all" {
			runs = []bool{false, true}
		} else {
			runs = []bool{o.traced}
		}
		for _, traced := range runs {
			ro.traced = traced
			rep, err := run(ro)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
				return 1
			}
			rep.print(stdout)
			if err := rep.save(o.out); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			reps = append(reps, rep)
		}
	}
	line, ok, err := resultLine(reps)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// report is everything one run measured.
type report struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seconds   int      `json:"seconds"`
	Clients   int      `json:"clients"`
	Env       envInfo  `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Incorrect int      `json:"incorrect"`
	Problems  []string `json:"problems,omitempty"`
	// Excluded names the inputs the draw left out for a known defect.
	Excluded []string `json:"excluded_inputs,omitempty"`
	// SetupRuns is each set-up's wall time, SetupCPU its CPU time and
	// SetupCal the calibration run before it (ms); setup_s is the median
	// of SetupCPU at the reference speed.
	SetupRuns []float64 `json:"setup_runs_s"`
	SetupCPU  []float64 `json:"setup_cpu_s"`
	SetupCal  []float64 `json:"setup_calibration_ms"`
	// HeapReads are the live heap reads whose median is live_heap_mb,
	// PhaseCal the calibrations run after each (ms).
	HeapReads []float64          `json:"live_heap_reads_mb,omitempty"`
	PhaseCal  []float64          `json:"phase_calibration_ms,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Tails     map[string]tail    `json:"tails,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
	SpanCount int                `json:"span_count,omitempty"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the timed phases (-1 when unknown): a
	// high value marks a run whose timings the neighbours disturbed.
	StealFrac float64 `json:"steal_frac"`
}

// ok reports whether every output of the run was correct: no op failed
// and none was incorrect.
func (r *report) ok() bool { return r.Incorrect == 0 && r.Failed == 0 }

// tail is the highest percentile of one latency with at least
// minTailBeyond samples above it.
type tail struct {
	Quantile float64 `json:"quantile"`
	Ms       float64 `json:"ms"`
	Samples  int     `json:"samples"`
	Beyond   int     `json:"beyond"`
}

const minTailBeyond = 10

// heapSamples is how many times an untraced run reads the live heap.
// host-churn's reads vary by about a session with the residents of the
// moment (3.2–3.7 MB within one run); their median over 30 reads lies
// within a few percent from run to run.
const heapSamples = 30

// run executes one workload once: set-up several times, then either the
// untraced or the traced run, then the checks that wait for the end.
func run(o options) (*report, error) {
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(o.workload, tmp)
	if err != nil {
		return nil, err
	}
	defer w.close()
	return measure(o, w)
}

// measure sets w up, runs it and checks its outputs.
func measure(o options, w workload) (*report, error) {
	var err error
	rep := &report{Workload: o.workload, Traced: o.traced, Seconds: o.seconds,
		Clients: w.clients(), Env: readEnv(o.seed, o.commit)}

	for i := 0; i < setupRuns; i++ {
		// Drop and collect the previous set-up's state, so no set-up pays
		// for the one before it.
		w.close()
		rep.SetupCal = append(rep.SetupCal, ms(calibrate()))
		start, cpu := time.Now(), processCPU()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupCPU = append(rep.SetupCPU, (processCPU() - cpu).Seconds())
		rep.SetupRuns = append(rep.SetupRuns, time.Since(start).Seconds())
	}
	if s, ok := w.(screener); ok {
		if err := s.screen(); err != nil {
			return nil, fmt.Errorf("screen inputs: %w", err)
		}
		rep.Excluded = s.excluded()
	}

	epoch := time.Now()
	var ids atomic.Int64
	cs := make([]*client, w.clients())
	for i := range cs {
		cs[i] = newClient(i, o.seed, epoch, &ids)
	}
	d := time.Duration(o.seconds) * time.Second

	steal0, stealOK0 := readSteal()
	var all phase
	if o.traced {
		all, err = runTraced(w, cs, d, &ids, rep, filepath.Join(o.out, "trace-"+o.workload+".jsonl"))
		if err != nil {
			return nil, err
		}
	} else {
		all = runEndToEnd(w, cs, d, rep)
	}

	rep.StealFrac = -1
	if steal1, ok := readSteal(); ok && stealOK0 {
		rep.StealFrac = steal1.since(steal0)
	}

	bad := w.verify()
	rep.Attempted = all.ops
	rep.Failed = all.failed
	rep.Incorrect = all.incorrect + len(bad)
	rep.Problems = all.problems
	for _, err := range bad {
		rep.Problems = append(rep.Problems, "verify: "+err.Error())
	}
	if rep.Failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d op(s) failed; every op must succeed", rep.Failed))
	}
	if rep.EndToEnd != nil {
		rep.EndToEnd["error_rate"] = ratio(float64(rep.Failed+rep.Incorrect), float64(rep.Attempted))
	}
	return rep, nil
}

// runEndToEnd is the untraced run: the timed phase in heapSamples
// parts, with the live heap read at the end of each and reported as the
// median, so it does not hang on which sessions happen to be resident at
// one instant.
func runEndToEnd(w workload, cs []*client, d time.Duration, rep *report) phase {
	var all phase
	for i := 0; i < heapSamples; i++ {
		all.merge(runPhase(w, cs, d/heapSamples, false))
		rep.HeapReads = append(rep.HeapReads, liveHeapMB(cs))
		rep.PhaseCal = append(rep.PhaseCal, ms(calibrate()))
	}
	rep.EndToEnd = endToEndMetrics(rep, all, cs)
	rep.Tails = tails(cs)
	return all
}

// runTraced is the per-layer run: untraced and traced quarters
// interleaved A B B A, so drift over the run falls on both arms alike.
// Spans and counters come from the traced quarters, the runtime figures
// from the untraced ones.
func runTraced(w workload, cs []*client, d time.Duration, ids *atomic.Int64, rep *report, spanFile string) (phase, error) {
	var all, plain, traced phase
	counts := map[string]float64{}
	for _, on := range []bool{false, true, true, false} {
		before := w.counters()
		ph := runPhase(w, cs, d/4, on)
		if on {
			traced.merge(ph)
			for k, v := range w.counters() {
				counts[k] += v - before[k]
			}
		} else {
			plain.merge(ph)
		}
		all.merge(ph)
	}
	if traced.ops == 0 || plain.ops == 0 {
		return all, fmt.Errorf("a traced-run quarter completed no op")
	}
	spans, err := collectSpans(cs, ids)
	if err != nil {
		return all, err
	}
	ops := 0
	for _, c := range cs {
		for k, v := range c.t.counts {
			counts[k] += v
		}
		ops += c.t.ops
	}
	m := layerMetrics(newSpanSet(spans), counts, ops)
	for k, v := range w.gauges() {
		m[k] = v
	}
	m["runtime.allocs_per_op"] = ratio(float64(plain.mallocs), float64(plain.ops))
	m["runtime.alloc_kb_per_op"] = ratio(float64(plain.allocBytes)/1024, float64(plain.ops))
	m["runtime.gc_cpu_fraction"] = ratio(plain.gcCPU, plain.totalCPU)
	m["trace.overhead_frac"] = 1 - traced.opsPerSec()/plain.opsPerSec()
	rep.PerLayer = m
	rep.SpanFile = spanFile
	rep.SpanCount = len(spans)
	if err := writeSpans(spanFile, spans); err != nil {
		return all, fmt.Errorf("write spans: %w", err)
	}
	return all, nil
}

// collectSpans gathers every client's call spans and imports the
// program traces their ops adopted.
func collectSpans(cs []*client, ids *atomic.Int64) ([]span, error) {
	kinds := cs[0].t.kinds
	for _, c := range cs[1:] {
		for id, k := range c.t.kinds {
			kinds[id] = k
		}
	}
	var spans []span
	byOp := map[int64][]span{}
	for _, c := range cs {
		spans = append(spans, c.t.spans...)
		for _, s := range c.t.spans {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	for _, c := range cs {
		for _, pt := range c.t.progs {
			ps, err := importProgram(pt, c.t.epoch, byOp[pt.op], ids, kinds)
			if err != nil {
				return nil, err
			}
			spans = append(spans, ps...)
		}
	}
	return spans, nil
}

// endToEndMetrics assembles an untraced run's end-to-end metrics from
// its set-ups, live heap reads and calibrations, its phase and its
// clients' latency samples (error_rate is filled in once verification is
// done).
func endToEndMetrics(rep *report, ph phase, cs []*client) map[string]float64 {
	cpuPerOp := ratio(ms(ph.cpu), float64(ph.ops))
	m := map[string]float64{
		"setup_s":           atRefSpeed(median(rep.SetupCPU), rep.SetupCal),
		"ops_per_s":         ph.opsPerSec(),
		"cpu_ms_per_op":     cpuPerOp,
		"ref_cpu_ms_per_op": atRefSpeed(cpuPerOp, rep.PhaseCal),
		"live_heap_mb":      median(rep.HeapReads),
	}
	for _, l := range latencies {
		if !contains(l.workloads, rep.Workload) {
			continue
		}
		s := merged(cs, l.key)
		m[l.key+"_ms_p50"] = percentile(s, 0.5)
		if l.p90 {
			m[l.key+"_ms_p90"] = percentile(s, 0.9)
		}
	}
	return m
}

// merged returns every client's samples of one latency, sorted.
func merged(cs []*client, key string) []float64 {
	var all latency
	for _, c := range cs {
		if l := c.lat[key]; l != nil {
			all.ms = append(all.ms, l.ms...)
		}
	}
	return all.sorted()
}

func tails(cs []*client) map[string]tail {
	out := map[string]tail{}
	for _, l := range latencies {
		s := merged(cs, l.key)
		if q, beyond, ok := tailPercentile(len(s), minTailBeyond); ok {
			out[l.key] = tail{Quantile: q, Ms: percentile(s, q), Samples: len(s), Beyond: beyond}
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// print writes the text report.
func (r *report) print(w io.Writer) {
	mode := "end-to-end run"
	if r.Traced {
		mode = "traced run"
	}
	fmt.Fprintf(w, "== %s: %s, %d client(s), %ds\n", r.Workload, mode, r.Clients, r.Seconds)
	e := r.Env
	fmt.Fprintf(w, "env: %s %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d\n",
		e.GoVersion, e.Platform, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Commit, e.Seed)
	fmt.Fprintf(w, "ops: %d attempted, %d failed, %d incorrect; CPU steal %.3f\n", r.Attempted, r.Failed, r.Incorrect, r.StealFrac)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, x := range r.Excluded {
		fmt.Fprintf(w, "  known defect, left out of the draw: %s\n", x)
	}
	if r.EndToEnd != nil {
		fmt.Fprintf(w, "set-up runs (s): wall %s; CPU %s\n", floats(r.SetupRuns), floats(r.SetupCPU))
		fmt.Fprintf(w, "calibration (ms of CPU, %v at the reference speed): set-up mean %.2f, timed phase mean %.2f\n",
			refNominal, mean(r.SetupCal), mean(r.PhaseCal))
		for _, d := range endToEnd {
			v, ok := r.EndToEnd[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-22s %12.4f %s\n", d.Name, v, d.Unit)
		}
		for _, l := range latencies {
			if t, ok := r.Tails[l.key]; ok {
				fmt.Fprintf(w, "  tail %-17s p%-7s %9.4f ms  (%d samples, %d beyond)\n",
					l.key, trimFloat(100*t.Quantile), t.Ms, t.Samples, t.Beyond)
			}
		}
	}
	if r.PerLayer != nil {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %12.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", r.SpanCount, r.SpanFile)
	}
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

func trimFloat(x float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", x), "0"), ".")
}

// save writes the full report as JSON next to the span files.
func (r *report) save(dir string) error {
	kind := "e2e"
	if r.Traced {
		kind = "traced"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report-"+r.Workload+"-"+kind+".json"), append(data, '\n'), 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line: for a single run its gated
// end-to-end metrics or its per-layer metrics; for several runs every
// metric, prefixed with its workload. ok is false when any run was not
// correct.
func resultLine(reps []*report) (string, bool, error) {
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed + r.Incorrect
		if !r.ok() {
			res.Correct = false
		}
		prefix := ""
		if len(reps) > 1 {
			prefix = r.Workload + "."
		}
		if r.Traced {
			for _, d := range perLayer {
				res.Metrics[prefix+d.Name] = metricValue{r.PerLayer[d.Name], d.Unit}
			}
			continue
		}
		names := gated
		if len(reps) > 1 {
			names = nil
			for _, d := range endToEnd {
				if _, ok := r.EndToEnd[d.Name]; ok {
					names = append(names, d.Name)
				}
			}
		}
		for _, name := range names {
			d, _ := findDef(endToEnd, name)
			v, ok := r.EndToEnd[name]
			if !ok || (v == 0 && contains(gated, name)) {
				return "", false, fmt.Errorf("%s: metric %s has no measurement", r.Workload, name)
			}
			res.Metrics[prefix+name] = metricValue{v, d.Unit}
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return "", false, err
	}
	return string(data), res.Correct, nil
}

// envInfo describes the machine and build a report was taken on.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readEnv(seed int64, commit string) envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		Seed:       seed,
	}
}

// cpuTicks is the machine-wide CPU time split from /proc/stat.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the machine's cumulative stolen and total CPU ticks.
func readSteal() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		if i < 8 { // guest time is already counted in user time
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

func (t cpuTicks) since(t0 cpuTicks) float64 {
	return ratio(float64(t.steal-t0.steal), float64(t.total-t0.total))
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
