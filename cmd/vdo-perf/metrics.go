package main

import "time"

// metricDef describes one reported metric. BENCHMARK.json declares the
// same names, units, directions and bounds (main_test.go holds the two
// together); README.md gives each metric's layer and source.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a run counts as a regression.
	Bound    float64
	EndToEnd bool
	// Unlisted metrics are printed but not declared in BENCHMARK.json,
	// which declares only metrics that read above 0 on every workload.
	// README.md names each one's zero.
	Unlisted bool
}

var catalogue = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "detect_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, EndToEnd: true},
	{Name: "detect_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "max_ev_s", Unit: "ev/s", Better: "higher", Bound: 0.25, EndToEnd: true},
	{Name: "alloc_b_per_event", Unit: "B", Better: "lower", Bound: 0.10, EndToEnd: true},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, EndToEnd: true},
	{Name: "error_rate", Unit: "ratio", Better: "lower", EndToEnd: true, Unlisted: true},

	{Name: "churn.step_us", Unit: "us", Better: "lower"},
	{Name: "churn.step_allocs", Unit: "allocs", Better: "lower"},
	{Name: "host.log_events", Unit: "count", Better: "lower"},
	{Name: "stream.flush_us", Unit: "us", Better: "lower"},
	{Name: "stream.flush_us_per_event", Unit: "us", Better: "lower"},
	{Name: "stream.flush_allocs_per_event", Unit: "allocs", Better: "lower"},
	{Name: "stream.flush_self_us", Unit: "us", Better: "lower"},
	{Name: "stream.delta_self_us", Unit: "us", Better: "lower"},
	{Name: "stream.events_per_flush", Unit: "count", Better: "higher"},
	{Name: "stream.hosts_per_flush", Unit: "count", Better: "lower"},
	{Name: "stream.full_delta_ratio", Unit: "ratio", Better: "lower", Unlisted: true},
	{Name: "stream.alarms", Unit: "count", Better: "lower", Unlisted: true},
	{Name: "stream.repairs", Unit: "count", Better: "lower", Unlisted: true},
	{Name: "index.checks_evaluated_per_event", Unit: "count", Better: "lower"},
	{Name: "index.checks_executed_per_event", Unit: "count", Better: "lower"},
	{Name: "index.localization", Unit: "ratio", Better: "higher"},
	{Name: "index.watch_us", Unit: "us", Better: "lower", Unlisted: true},
	{Name: "index.unwatch_us", Unit: "us", Better: "lower", Unlisted: true},
	{Name: "core.check_self_us", Unit: "us", Better: "lower"},
	{Name: "core.dedup_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.attempt_us", Unit: "us", Better: "lower"},
	{Name: "engine.attempts_per_check", Unit: "count", Better: "lower"},
	{Name: "engine.errors", Unit: "count", Better: "lower", Unlisted: true},
	{Name: "coord.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.sweep_max_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.sweep_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "coord.sweep_self_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.host_self_us", Unit: "us", Better: "lower"},
	{Name: "coord.cache_replay_ratio", Unit: "ratio", Better: "higher"},
	{Name: "coord.reaudits_per_sweep", Unit: "count", Better: "lower", Unlisted: true},
	{Name: "coord.utilization", Unit: "ratio", Better: "higher", Unlisted: true},
	{Name: "coord.load_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.spans_per_event", Unit: "count", Better: "lower"},
	{Name: "driver.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.detect_p99_pooled_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.detect_max_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.cpu_us_per_event", Unit: "us", Better: "lower"},
}

// minIntervalEvents is how many events a detect_p99_ms interval must
// offer at the workload rate: 15 then lie beyond its p99. Leaves have no
// verdict to wait for, so an interval holds fewer samples; on membership,
// where a fifth of the events are leaves, about 1100, still ten beyond.
const minIntervalEvents = 1500

// measurements is everything one workload run measured.
type measurements struct {
	w      workload
	warmup time.Duration
	window time.Duration // measured length of each open-loop segment
	setups []time.Duration

	opens     []*phaseStats // open-loop segments
	heapMB    []float64     // live heap after each segment
	logEvents []float64     // event-log entries after each segment
	flats     []*phaseStats // flat-out passes
	traced    *phaseStats
	ins       *instruments
	spans     spanSummary
	oracle    oracleResult
}

// latency pools the open-loop segments: every sampled detection latency,
// ascending, every interval p99, and the fewest samples in an interval.
func (m *measurements) latency() (lat, p99s []time.Duration, fewest int) {
	fewest = -1
	for _, o := range m.opens {
		for _, s := range o.samples {
			lat = append(lat, s.lat)
		}
		ps, f := intervalP99s(o.samples, m.warmup, m.window, intervalLength(m.w.Rate))
		p99s = append(p99s, ps...)
		if fewest < 0 || f < fewest {
			fewest = f
		}
	}
	return sorted(lat), p99s, fewest
}

// metrics computes the end-to-end metrics, and the per-layer ones when the
// traced phase ran.
func (m *measurements) metrics() map[string]float64 {
	// Throughput is the median pass's: the machine's speed drifts between
	// passes. Allocations and counts do not depend on speed, so they are
	// pooled over the three streams.
	var flat phaseStats
	var rates []float64
	var localization float64
	for _, f := range m.flats {
		rates = append(rates, f.rate())
		flat.events += f.events
		flat.allocBytes += f.allocBytes
		flat.eval.add(f.eval)
		flat.sweeps.add(f.sweeps)
		localization += f.localization / float64(len(m.flats))
	}
	fe := float64(flat.events)
	lat, p99s, _ := m.latency()
	out := map[string]float64{
		"setup_s":           median(m.setups).Seconds(),
		"detect_p50_ms":     ms(nearestRank(lat, 0.50)),
		"detect_p99_ms":     ms(median(p99s)),
		"max_ev_s":          median(rates),
		"alloc_b_per_event": ratio(float64(flat.allocBytes), fe),
		"heap_mb":           median(m.heapMB),
		"error_rate":        ratio(float64(m.oracle.Failed), float64(m.oracle.Checked)),
	}
	if m.traced == nil {
		return out
	}

	traced, ins := m.traced, m.ins
	te := float64(traced.events)
	// The traced phase replays the start of the middle round's stream.
	paired := m.flats[rounds/2]

	var late []time.Duration
	var sw sweepTotals
	var cpu time.Duration
	var measured int
	var gcCPU, busyCPU float64
	for _, o := range m.opens {
		late = append(late, o.late...)
		sw.add(o.sweeps)
		cpu += o.cpu
		measured += o.measured
		gcCPU += o.gcCPU
		busyCPU += o.busyCPU
	}
	window := m.window * time.Duration(len(m.opens))

	// The evaluating call's plan-and-fold self time: the flush span in
	// push mode; the sweep span and its shard spans in sweep mode.
	planSelf := m.spans.names["flush"].self
	unit := m.spans.names["delta"]
	if !m.w.push() {
		planSelf = m.spans.names["sweep"].self + m.spans.names["shard"].self
		unit = m.spans.hostRun
	}
	evalCalls := ins.m[evalMeter].n

	for k, v := range map[string]float64{
		"churn.step_us":                 us(ins.m[stepMeter].wall, ins.m[stepMeter].n),
		"churn.step_allocs":             ratio(float64(ins.m[stepMeter].allocs), float64(ins.m[stepMeter].n)),
		"host.log_events":               median(m.logEvents),
		"stream.flush_us":               us(ins.m[evalMeter].wall, evalCalls),
		"stream.flush_us_per_event":     ratio(float64(ins.m[evalMeter].wall)/1e3, te),
		"stream.flush_allocs_per_event": ratio(float64(ins.m[evalMeter].allocs), te),
		"stream.flush_self_us":          us(planSelf, evalCalls),
		"stream.delta_self_us":          us(unit.self, unit.n),
		"stream.events_per_flush":       ratio(float64(flat.eval.events), float64(flat.eval.calls)),
		"stream.hosts_per_flush":        ratio(float64(flat.eval.hosts), float64(flat.eval.calls)),
		"stream.full_delta_ratio":       ratio(float64(flat.eval.full), float64(flat.eval.hosts)),
		"stream.alarms":                 float64(flat.eval.alarms),
		"stream.repairs":                float64(flat.eval.repairs),

		"index.checks_evaluated_per_event": ratio(float64(flat.eval.checksEvaluated), fe),
		"index.checks_executed_per_event":  ratio(float64(flat.eval.checksExecuted), fe),
		"index.localization":               localization,
		"index.watch_us":                   us(ins.m[watchMeter].wall, ins.m[watchMeter].n),
		"index.unwatch_us":                 us(ins.m[unwatchMeter].wall, ins.m[unwatchMeter].n),

		"core.check_self_us":        us(m.spans.names["check"].self, m.spans.names["check"].n),
		"core.dedup_hit_ratio":      ratio(float64(flat.eval.dedupHits), float64(flat.eval.dedupHits+flat.eval.dedupMisses)),
		"engine.attempt_us":         us(m.spans.names["attempt"].dur, m.spans.names["attempt"].n),
		"engine.attempts_per_check": ratio(float64(flat.eval.attempts), float64(flat.eval.checksExecuted)),
		"engine.errors":             float64(flat.eval.errors),

		"coord.sweep_ms":           ratio(ms(sw.wall), float64(sw.n)),
		"coord.sweep_max_ms":       ms(sw.max),
		"coord.sweep_stall_share":  ratio(sw.wall.Seconds(), window.Seconds()),
		"coord.sweep_self_ms":      us(m.spans.names["sweep"].self, m.spans.names["sweep"].n) / 1e3,
		"coord.host_self_us":       us(m.spans.names["host"].self, m.spans.names["host"].n),
		"coord.cache_replay_ratio": ratio(float64(flat.sweeps.cached), float64(flat.sweeps.hosts)),
		"coord.reaudits_per_sweep": ratio(float64(flat.sweeps.hosts-flat.sweeps.cached), float64(flat.sweeps.n)),
		"coord.utilization":        ratio(sw.utilization, float64(sw.n)),
		"coord.load_imbalance":     ratio(sw.imbalance, float64(sw.n)),

		// Tracing overhead: the traced phase's wall per event, with the
		// allocation reads taken out, against the paired flat-out pass's
		// over the same first stretch of the stream.
		"telemetry.overhead_pct":    100 * (ratio(float64(traced.wall-ins.readTime)/te, float64(paired.markWall)/float64(paired.markEvents)) - 1),
		"telemetry.spans_per_event": ratio(float64(m.spans.total), te),

		"driver.late_p99_ms":          ms(nearestRank(sorted(late), 0.99)),
		"driver.detect_p99_pooled_ms": ms(nearestRank(lat, 0.99)),
		"driver.detect_max_ms":        ms(nearestRank(lat, 1)),
		"driver.gc_cpu_share":         ratio(gcCPU, busyCPU),
		"driver.cpu_us_per_event":     us(cpu, measured),
	} {
		out[k] = v
	}
	return out
}

// intervalLength is the detect_p99_ms interval at a rate: the shortest
// whole number of fallback periods offering minIntervalEvents events.
func intervalLength(rate float64) time.Duration {
	need := time.Duration(minIntervalEvents / rate * float64(time.Second))
	return max(fallbackEvery, (need+fallbackEvery-1)/fallbackEvery*fallbackEvery)
}

// intervalP99s cuts an open-loop segment's measured window into
// consecutive intervals of the given length and returns each interval's
// p99 and the fewest samples an interval held. Samples past the last whole
// interval are dropped. detect_p99_ms is the median of these p99s: a p99
// pooled over the window swings with how many long fallback sweeps land in
// it; the median over intervals does not.
func intervalP99s(samples []sample, warmup, window, length time.Duration) (p99s []time.Duration, fewest int) {
	if len(samples) == 0 || window <= 0 {
		return nil, 0
	}
	intervals := max(1, int(window/length))
	if intervals == 1 {
		length = window
	}
	buckets := make([][]time.Duration, intervals)
	for _, s := range samples {
		if i := int((s.due - warmup) / length); i < intervals {
			buckets[i] = append(buckets[i], s.lat)
		}
	}
	fewest = len(samples)
	for _, b := range buckets {
		fewest = min(fewest, len(b))
		if len(b) > 0 {
			p99s = append(p99s, nearestRank(sorted(b), 0.99))
		}
	}
	return p99s, fewest
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us is total/n in microseconds, or 0 when n is 0.
func us(total time.Duration, n int) float64 { return ratio(float64(total)/1e3, float64(n)) }
