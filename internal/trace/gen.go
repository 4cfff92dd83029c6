package trace

import (
	"math/rand"
	"sort"
)

// Generators produce synthetic traces for the benchmark harness. All
// generators are deterministic in their seed so experiment tables are
// reproducible.

// GenPeriodic produces a boolean signal that is true for dutyTicks at the
// start of every periodTicks window, from time 0 to end.
func GenPeriodic(tr *Trace, name string, period, duty, end Time) {
	if period <= 0 {
		panic("trace: period must be positive")
	}
	for t := Time(0); t <= end; t += period {
		tr.SetBool(name, t, true)
		if duty < period {
			tr.SetBool(name, t+duty, false)
		}
	}
	tr.SetEnd(end)
}

// GenPulse sets a single true pulse [at, at+width) on the named signal.
func GenPulse(tr *Trace, name string, at, width Time) {
	tr.SetBool(name, at, true)
	tr.SetBool(name, at+width, false)
}

// GenRandomToggles flips the named boolean signal n times at strictly
// increasing random instants in (0, end], starting from false at time 0.
// Strictly increasing instants leave room for at most end toggles, so n
// is capped at end: a larger n toggles at every instant of (0, end], and
// an end <= 0 toggles never.
func GenRandomToggles(tr *Trace, name string, n int, end Time, rng *rand.Rand) {
	tr.SetBool(name, 0, false)
	n = int(min(Time(n), end))
	if n <= 0 {
		tr.SetEnd(end)
		return
	}
	times := make(map[Time]struct{}, n)
	for len(times) < n {
		t := Time(rng.Int63n(int64(end))) + 1
		times[t] = struct{}{}
	}
	val := false
	// Collect and sort via ChangePoints-like approach: emit in time order.
	ordered := make([]Time, 0, n)
	for t := range times {
		ordered = append(ordered, t)
	}
	sortTimes(ordered)
	for _, t := range ordered {
		val = !val
		tr.SetBool(name, t, val)
	}
	tr.SetEnd(end)
}

// GenResponsePairs emits n (p, q) request/response pulses: p rises at a
// random time, q rises between minLat and maxLat ticks later. It returns
// the maximum observed latency, useful as ground truth for timed-response
// pattern tests.
func GenResponsePairs(tr *Trace, p, q string, n int, gap, minLat, maxLat Time, rng *rand.Rand) Time {
	t := Time(0)
	var maxObs Time
	tr.SetBool(p, 0, false)
	tr.SetBool(q, 0, false)
	for i := 0; i < n; i++ {
		t += gap + Time(rng.Int63n(int64(gap)))
		lat := minLat
		if maxLat > minLat {
			lat += Time(rng.Int63n(int64(maxLat - minLat)))
		}
		GenPulse(tr, p, t, 1)
		GenPulse(tr, q, t+lat, 1)
		if lat > maxObs {
			maxObs = lat
		}
		t += lat
	}
	tr.SetEnd(t + gap)
	return maxObs
}

// GenNumericWalk produces a numeric random walk sampled every step ticks.
func GenNumericWalk(tr *Trace, name string, start float64, steps int, step Time, rng *rand.Rand) {
	v := start
	for i := 0; i < steps; i++ {
		t := Time(i) * step
		tr.SetNum(name, t, v)
		v += rng.Float64()*2 - 1
	}
	tr.SetEnd(Time(steps) * step)
}

func sortTimes(ts []Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}
