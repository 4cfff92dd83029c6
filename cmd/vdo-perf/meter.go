package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// meterKind names a metered public call.
type meterKind int

const (
	stepMeter    meterKind = iota // loadgen.Churn.Step
	evalMeter                     // Streamer.Flush, or the evaluating Sweep in sweep mode
	watchMeter                    // Streamer.Watch
	unwatchMeter                  // Streamer.Unwatch
	numMeters
)

// meter sums the calls of one kind.
type meter struct {
	n      int
	wall   time.Duration
	allocs int64
}

// instruments meters public calls in the traced phase. Allocation counts
// come from runtime.ReadMemStats, which flushes every per-P cache and so
// counts exactly what ran between two reads; the cheaper runtime/metrics
// counters only advance when a span of small objects fills up, which
// would charge one call's allocations to whichever call fills the span.
// A nil *instruments meters nothing.
type instruments struct {
	m [numMeters]meter
	// counting turns on allocation reads; set-up Watch calls are timed
	// only, so ten thousand reads do not inflate the set-up time.
	counting bool
	// readTime is the time spent reading allocation counts, taken out of
	// the traced phase's wall before comparing it with the flat-out one.
	readTime time.Duration
}

// metered runs fn, adding its wall time and allocations to meter k.
func (in *instruments) metered(k meterKind, fn func()) {
	if in == nil {
		fn()
		return
	}
	var a0 uint64
	if in.counting {
		a0 = in.mallocs()
	}
	t := time.Now()
	fn()
	m := &in.m[k]
	m.wall += time.Since(t)
	m.n++
	if in.counting {
		m.allocs += int64(in.mallocs() - a0)
	}
}

// mallocs is the process's cumulative heap allocation count.
func (in *instruments) mallocs() uint64 {
	t := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	in.readTime += time.Since(t)
	return ms.Mallocs
}

// cpuMark is a reading of the process CPU clocks.
type cpuMark struct {
	set bool
	// proc is the user plus system CPU time of the process.
	proc time.Duration
	// gc and busy are the runtime's estimates of GC CPU time and of all
	// non-idle CPU time, in seconds.
	gc, busy float64
}

func readCPU() cpuMark {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuMark{} // diagnostics only: an unset mark reads as 0
	}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuMark{
		set:  true,
		proc: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:   s[0].Value.Float64(),
		busy: s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// since returns the process CPU time between m0 and m, and the runtime's
// GC and non-idle CPU seconds.
func (m cpuMark) since(m0 cpuMark) (proc time.Duration, gc, busy float64) {
	if !m.set || !m0.set {
		return 0, 0, 0
	}
	return m.proc - m0.proc, m.gc - m0.gc, m.busy - m0.busy
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
