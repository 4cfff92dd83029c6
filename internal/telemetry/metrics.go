package telemetry

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"veridevops/internal/report"
)

// histo is one duration histogram's summary: count, sum, min and max.
type histo struct {
	count    int64
	sum      time.Duration
	min, max time.Duration
}

// HistogramStats is the exported snapshot of one duration histogram.
type HistogramStats struct {
	Count    int64
	Total    time.Duration
	Min, Max time.Duration
}

// Mean is Total / Count; 0 when nothing was observed.
func (h HistogramStats) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Total / time.Duration(h.Count)
}

// Metrics is the lightweight registry half of the telemetry layer: named
// counters, gauges and duration histograms the engine, fleet and monitor
// hot paths feed (engine.checks, fleet.steals, monitor.alarms, ...) and
// the CLIs' -metrics flag renders. A nil *Metrics is the disabled
// registry: every method is a zero-allocation no-op, so instrumentation
// stays compiled into the hot loops unconditionally. Metrics are safe
// for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histo
	quants   map[string]*Quantiles
}

// quantilesCap bounds each named percentile recorder in the registry:
// enough retained samples for exact percentiles over any bench-sized
// stream, deterministic stride decimation beyond it.
const quantilesCap = 1 << 16

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histo),
		quants:   make(map[string]*Quantiles),
	}
}

// Add increments the named counter (negative deltas are allowed).
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// SetGauge records the latest value of the named gauge.
func (m *Metrics) SetGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe folds one duration into the named histogram. Negative
// durations clamp to zero.
func (m *Metrics) Observe(name string, d time.Duration) {
	if m == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &histo{min: d}
		m.hists[name] = h
	}
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	m.mu.Unlock()
}

// Sample folds one duration into the named percentile recorder — the
// exact-quantile companion to Observe's summary histogram, used
// where a table must answer p50/p95/p99 (the load harness's detection
// latencies). Negative durations clamp to zero.
func (m *Metrics) Sample(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	q := m.quants[name]
	if q == nil {
		q = NewQuantilesCap(quantilesCap)
		m.quants[name] = q
	}
	m.mu.Unlock()
	q.Observe(d)
}

// Percentiles returns a snapshot of the named percentile recorder; the
// zero QuantileStats when absent or on a nil registry.
func (m *Metrics) Percentiles(name string) QuantileStats {
	if m == nil {
		return QuantileStats{}
	}
	m.mu.Lock()
	q := m.quants[name]
	m.mu.Unlock()
	if q == nil {
		return QuantileStats{}
	}
	return q.Snapshot()
}

// Counter returns the named counter's current value; 0 when absent or on
// a nil registry.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Gauge returns the named gauge's latest value and whether it was ever
// set.
func (m *Metrics) Gauge(name string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.gauges[name]
	return v, ok
}

// Histogram returns a snapshot of the named duration histogram; the zero
// HistogramStats when absent or on a nil registry.
func (m *Metrics) Histogram(name string) HistogramStats {
	if m == nil {
		return HistogramStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		return HistogramStats{}
	}
	return HistogramStats{Count: h.count, Total: h.sum, Min: h.min, Max: h.max}
}

// Table renders every metric, sorted by kind (counters, gauges,
// histograms, quantiles) then name. Histogram rows carry the summary
// (count/total/min/mean/max); quantile rows additionally carry
// p50/p95/p99. Nil registries render an empty table.
func (m *Metrics) Table(title string) *report.Table {
	t := report.New(title, "metric", "kind", "value", "count",
		"total-ms", "min-ms", "mean-ms", "p50-ms", "p95-ms", "p99-ms", "max-ms")
	if m == nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range sortedKeys(m.counters) {
		t.AddRow(name, "counter", strconv.FormatInt(m.counters[name], 10),
			"-", "-", "-", "-", "-", "-", "-", "-")
	}
	for _, name := range sortedKeys(m.gauges) {
		t.AddRow(name, "gauge", report.Float(m.gauges[name]),
			"-", "-", "-", "-", "-", "-", "-", "-")
	}
	for _, name := range sortedKeys(m.hists) {
		h := m.hists[name]
		mean := time.Duration(0)
		if h.count > 0 {
			mean = h.sum / time.Duration(h.count)
		}
		t.AddRow(name, "histogram", "-", strconv.FormatInt(h.count, 10),
			report.Millis(h.sum), report.Millis(h.min), report.Millis(mean),
			"-", "-", "-", report.Millis(h.max))
	}
	for _, name := range sortedKeys(m.quants) {
		q := m.quants[name].Snapshot()
		t.AddRow(name, "quantile", "-", strconv.FormatInt(q.Count, 10),
			report.Millis(q.Total), report.Millis(q.Min),
			report.Millis(q.Mean), report.Millis(q.P50), report.Millis(q.P95),
			report.Millis(q.P99), report.Millis(q.Max))
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
