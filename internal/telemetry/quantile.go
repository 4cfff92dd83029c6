package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Quantiles is a duration percentile recorder: where a histogram's
// count/total/min/max summary answers "how much, how bad", Quantiles
// answers "what is p99" — the question the load harness's change→verdict
// detection latencies need answered exactly. Samples are retained individually
// until an optional cap is reached, after which the recorder degrades to
// deterministic stride decimation: it keeps every 2nd retained sample and
// from then on records every 2nd (then 4th, 8th, ...) arrival, so memory
// stays bounded while the quantile estimate remains seeded-replay
// deterministic (no randomized reservoir). Count, Min, Max and Mean stay
// exact over every offered sample regardless of decimation.
//
// A nil *Quantiles is the disabled recorder: every method is a no-op or
// zero, matching the package's nil-receiver telemetry convention.
// Quantiles are safe for concurrent use.
type Quantiles struct {
	mu      sync.Mutex
	cap     int // retained-sample bound; 0 = unbounded (exact)
	stride  int64
	seen    int64 // offered samples, exact
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	samples []time.Duration
	sorted  bool
}

// QuantileStats is the exported snapshot of one Quantiles recorder: the
// summary plus the three operational percentiles every latency table
// reports. Min/Max/Mean/Count are exact; P50/P95/P99 are exact until the
// retention cap forces decimation.
type QuantileStats struct {
	Count          int64
	Total          time.Duration
	Min, Max, Mean time.Duration
	P50, P95, P99  time.Duration
}

// NewQuantiles returns an unbounded (exact) recorder.
func NewQuantiles() *Quantiles { return &Quantiles{} }

// NewQuantilesCap returns a recorder that retains at most max samples,
// decimating deterministically beyond that. max < 2 is treated as 2.
func NewQuantilesCap(max int) *Quantiles {
	if max < 2 {
		max = 2
	}
	return &Quantiles{cap: max}
}

// Observe folds one duration into the recorder. Negative durations clamp
// to zero, matching Metrics.Observe.
func (q *Quantiles) Observe(d time.Duration) {
	if q == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	q.mu.Lock()
	if q.seen == 0 {
		q.min, q.max = d, d
		q.stride = 1
	}
	if d < q.min {
		q.min = d
	}
	if d > q.max {
		q.max = d
	}
	q.sum += d
	// Decimated recorders keep every stride-th arrival; the summary above
	// still saw every sample.
	if q.seen%q.stride == 0 {
		q.samples = append(q.samples, d)
		q.sorted = false
		if q.cap > 0 && len(q.samples) >= q.cap {
			// Halve retention: keep every 2nd retained sample (arrival
			// order) and double the stride for future arrivals.
			kept := q.samples[:0]
			for i := 0; i < len(q.samples); i += 2 {
				kept = append(kept, q.samples[i])
			}
			q.samples = kept
			q.stride *= 2
		}
	}
	q.seen++
	q.mu.Unlock()
}

// Count returns how many samples were offered (not how many are
// retained).
func (q *Quantiles) Count() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.seen
}

// Min returns the smallest observed duration; 0 when empty.
func (q *Quantiles) Min() time.Duration {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.min
}

// Max returns the largest observed duration; 0 when empty.
func (q *Quantiles) Max() time.Duration {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.max
}

// Mean returns the exact mean over every offered sample; 0 when empty.
func (q *Quantiles) Mean() time.Duration {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.seen == 0 {
		return 0
	}
	return q.sum / time.Duration(q.seen)
}

// Quantile returns the p-quantile (nearest-rank over retained samples)
// for p in [0,1]; 0 when empty. p outside [0,1] clamps.
func (q *Quantiles) Quantile(p float64) time.Duration {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.quantileLocked(p)
}

func (q *Quantiles) quantileLocked(p float64) time.Duration {
	n := len(q.samples)
	if n == 0 {
		return 0
	}
	if !q.sorted {
		sort.Slice(q.samples, func(i, j int) bool { return q.samples[i] < q.samples[j] })
		q.sorted = true
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Nearest-rank: the smallest retained sample with rank >= p*n.
	idx := int(p*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return q.samples[idx]
}

// Snapshot returns the summary plus p50/p95/p99 in one consistent read.
func (q *Quantiles) Snapshot() QuantileStats {
	if q == nil {
		return QuantileStats{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QuantileStats{Count: q.seen, Total: q.sum, Min: q.min, Max: q.max}
	if q.seen > 0 {
		st.Mean = q.sum / time.Duration(q.seen)
	}
	st.P50 = q.quantileLocked(0.50)
	st.P95 = q.quantileLocked(0.95)
	st.P99 = q.quantileLocked(0.99)
	return st
}
