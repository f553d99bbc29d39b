package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Names of the public functions the benchmark calls, as its spans name
// them, and the roles that tell apart calls serving different steps.
const (
	callFactory     = "session.Factory"
	callAcquire     = "session.Manager.Acquire"
	callRelease     = "session.Session.Release"
	callCopyRows    = "wrappers.Browser.CopyRows"
	callPaste       = "workspace.Paste"
	callAcceptRows  = "workspace.AcceptRows"
	callRefresh     = "workspace.RefreshColumnSuggestions"
	callAcceptComp  = "intlearn.AcceptCompletion"
	callTopQueries  = "intlearn.TopQueriesCtx"
	callWaitRefines = "intlearn.WaitRefines"
	callAcceptQuery = "intlearn.AcceptQuery"
	callCompile     = "intlearn.CompileQuery"
	callExecute     = "engine.Plan.Execute"

	roleSuggest  = "suggest"
	roleRerank   = "rerank"
	roleFirst    = "first"
	roleExact    = "exact"
	roleDrain    = "drain"
	roleResident = "resident"
	roleReload   = "reload"
)

// workload is one closed-loop workload. setup may be called several
// times (the harness closes the workload before each, times each and
// keeps the last state); op runs one operation for one client and is
// called concurrently for different clients. close drops every state
// the workload holds.
type workload interface {
	clients() int
	setup() error
	op(c *client) error
	// verify runs the checks that need the timed phases to be over; each
	// error it returns is one op found incorrect.
	verify() []error
	// gauges reports per-layer state read once at the end of a run.
	gauges() map[string]float64
	// counters reads cumulative program counters that no single op owns;
	// a traced run adds their deltas over its traced phases.
	counters() map[string]float64
	close()
}

// opError classifies an op that did not produce a correct result: a
// failed op errored or returned nothing, an incorrect one returned an
// answer a check rejected. Any other error from an op counts as failed.
type opError struct {
	incorrect bool
	msg       string
}

func (e *opError) Error() string { return e.msg }

func failed(format string, args ...any) error {
	return &opError{msg: fmt.Sprintf(format, args...)}
}

func incorrect(format string, args ...any) error {
	return &opError{incorrect: true, msg: fmt.Sprintf(format, args...)}
}

// client is one closed-loop caller: its own input stream, latency
// samples and span recorder.
type client struct {
	id  int
	rng *rand.Rand
	// pick draws which ops a check samples, apart from rng so sampling
	// does not shift the inputs.
	pick *rand.Rand
	lat  map[string]*latency
	t    *tracer
}

func newClient(id int, seed int64, epoch time.Time, ids *atomic.Int64) *client {
	stream := seed*1009 + int64(id)
	return &client{
		id:   id,
		rng:  rand.New(rand.NewSource(stream)),
		pick: rand.New(rand.NewSource(^stream)),
		lat:  map[string]*latency{},
		t:    newTracer(id, epoch, ids),
	}
}

// quietClient is a client for work outside the timed phases (warm-ups
// and verification replays): it records nothing anyone reads.
func quietClient() *client { return newClient(-1, 0, time.Now(), nil) }

// call runs f as one call into a layer's public function and returns
// when it was issued and when it returned. In a traced phase the call
// becomes a span of the current op.
func (c *client) call(name, layer, role string, f func()) (time.Time, time.Time) {
	start := time.Now()
	f()
	end := time.Now()
	c.t.record(name, layer, role, start, end)
	return start, end
}

// sample records one end-to-end latency.
func (c *client) sample(key string, d time.Duration) {
	l := c.lat[key]
	if l == nil {
		l = &latency{}
		c.lat[key] = l
	}
	l.add(d)
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	ops, failed, incorrect int
	wall                   time.Duration
	problems               []string // first few failure messages
	mallocs, allocBytes    uint64
	gcCPU, totalCPU        float64       // the runtime's CPU estimates, in seconds
	cpu                    time.Duration // CPU time the process ran
}

// maxProblems bounds how many failure messages a phase keeps.
const maxProblems = 5

// runPhase drives every client in a closed loop for d and tallies the
// ops. traced switches span recording on for the phase.
func runPhase(w workload, cs []*client, d time.Duration, traced bool) phase {
	for _, c := range cs {
		c.t.on = traced
	}
	var ph phase
	var mu sync.Mutex
	var before, after runtime.MemStats
	cpu0, pcpu0 := readCPU(), processCPU()
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				c.t.beginOp("op", t0)
				err := w.op(c)
				c.t.endOp(time.Now())
				mu.Lock()
				ph.ops++
				if err != nil {
					var oe *opError
					if errors.As(err, &oe) && oe.incorrect {
						ph.incorrect++
					} else {
						ph.failed++
					}
					if len(ph.problems) < maxProblems {
						ph.problems = append(ph.problems, fmt.Sprintf("client %d: %v", c.id, err))
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	cpu1 := readCPU()
	ph.cpu = processCPU() - pcpu0
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcCPU = cpu1.gc - cpu0.gc
	ph.totalCPU = cpu1.total - cpu0.total
	for _, c := range cs {
		c.t.on = false
	}
	return ph
}

// merge adds another phase's tallies into ph.
func (ph *phase) merge(o phase) {
	ph.ops += o.ops
	ph.failed += o.failed
	ph.incorrect += o.incorrect
	ph.wall += o.wall
	ph.mallocs += o.mallocs
	ph.allocBytes += o.allocBytes
	ph.gcCPU += o.gcCPU
	ph.totalCPU += o.totalCPU
	ph.cpu += o.cpu
	for _, p := range o.problems {
		if len(ph.problems) < maxProblems {
			ph.problems = append(ph.problems, p)
		}
	}
}

func (ph *phase) opsPerSec() float64 { return ratio(float64(ph.ops), ph.wall.Seconds()) }

type cpuTimes struct{ gc, total float64 }

// readCPU reads the runtime's cumulative GC and total CPU estimates.
func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var t cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		t.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		t.total = s[1].Value.Float64()
	}
	return t
}

// liveHeapMB collects garbage and returns the live heap in MB, less the
// clients' latency samples: those grow with the number of ops done, so a
// faster program would otherwise read as a bigger one. The second
// collection frees what sync.Pools kept through the first, so the figure
// holds reachable data only.
func liveHeapMB(cs []*client) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-sampleBytes(cs)) / 1e6
}

// sampleBytes is the heap the clients' latency samples hold. A slice's
// capacity covers its whole allocation, size-class or page rounding
// included.
func sampleBytes(cs []*client) uint64 {
	var n uint64
	for _, c := range cs {
		for _, l := range c.lat {
			n += uint64(cap(l.ms)) * 8
		}
	}
	return n
}
