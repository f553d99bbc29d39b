package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// processCPU returns the user and system CPU time every thread of the
// process has run. The kernel counts neither time a thread waited for a
// CPU nor, with paravirtual steal accounting, time the hypervisor gave
// to other guests.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refKeyCount is how many keys refWork files.
const refKeyCount = 1 << 14

// refRounds is how many timed rounds of refWork one calibration runs on
// each processor.
const refRounds = 4

// refNominal is what one calibration costs at the reference speed. It
// only sets the scale of figures at the reference speed.
const refNominal = 25 * time.Millisecond

// refState is refWork's working set: built once per calibration, reused
// by every round, so the timed rounds allocate nothing and their cost
// depends neither on the collector nor on how much memory the workload
// left mapped.
type refState struct {
	keys []string
	m    map[string]int
	recs []refRec
}

type refRec struct {
	key string
	n   int
}

func newRefState() *refState {
	st := &refState{
		keys: make([]string, refKeyCount),
		m:    make(map[string]int, refKeyCount),
		recs: make([]refRec, refKeyCount),
	}
	x := uint64(88172645463325252)
	for i := range st.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		st.keys[i] = strconv.FormatUint(x, 36)
	}
	return st
}

// refWork is a fixed amount of work shaped like the program's: string
// keys hashed into a map and looked up in a scattered order, a record
// filled per key, and the records sorted by key.
func (st *refState) refWork() int {
	clear(st.m)
	for i, k := range st.keys {
		st.m[k] = i
	}
	for i := range st.keys {
		n := st.m[st.keys[(i*7919)%len(st.keys)]]
		st.recs[i] = refRec{key: st.keys[n], n: n}
	}
	sort.Slice(st.recs, func(a, b int) bool { return st.recs[a].key < st.recs[b].key })
	sum := 0
	for _, r := range st.recs {
		sum += r.n * len(r.key)
	}
	return sum
}

// refSink keeps refWork's results alive, so the compiler cannot drop it.
var refSink int

// calibrate measures the machine's speed of the moment: the CPU time of
// refRounds rounds of refWork, averaged over one runner per processor
// the program may use, so that every vCPU the workload runs on is
// sampled. Each runner warms its working set with one untimed round.
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	sums := make([]int, n)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for i := range sums {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			st := newRefState()
			sums[i] = st.refWork()
			ready.Done()
			<-start
			for r := 0; r < refRounds; r++ {
				sums[i] += st.refWork()
			}
		}()
	}
	ready.Wait()
	cpu := processCPU()
	close(start)
	done.Wait()
	d := (processCPU() - cpu) / time.Duration(n)
	for _, s := range sums {
		refSink += s
	}
	runtime.GC()
	return d
}

// atRefSpeed scales CPU time spent while calibrations took cals (ms) to
// what it would have cost at the reference speed. A host whose other
// guests slow every instruction slows the calibrations alike, so the
// scaled figure holds the program's work and not the neighbours'.
func atRefSpeed(cpu float64, cals []float64) float64 {
	return ratio(cpu*ms(refNominal), mean(cals))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
