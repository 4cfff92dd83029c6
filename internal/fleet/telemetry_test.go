package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/telemetry"
)

// TestSweepSpanTreeCoversAllLevels runs a traced sweep and checks the
// exported span forest covers every level — sweep, shard, host, check,
// attempt — with per-level counts matching the fleet shape. Run under
// -race (make trace-race) this also exercises concurrent span emission
// from shard goroutines.
func TestSweepSpanTreeCoversAllLevels(t *testing.T) {
	const nHosts = 4
	targets, _ := LinuxFleet(nHosts)
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	m := telemetry.NewMetrics()

	rep, st := Sweep(targets, Options{Shards: 2, Workers: 2, Trace: tr, Metrics: m})
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(rep.Hosts) != nHosts {
		t.Fatalf("hosts = %d", len(rep.Hosts))
	}

	recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	if len(roots) != 1 || roots[0].Name != "sweep" {
		t.Fatalf("roots = %+v, want one sweep span", roots)
	}

	counts := map[string]int{}
	hosts := map[string]bool{}
	roots[0].Walk(func(n *telemetry.Node) {
		counts[n.Name]++
		if n.Name == "host" {
			hosts[n.Tags["host"]] = true
		}
	})
	if counts["shard"] < 1 || counts["shard"] > 2 {
		t.Errorf("shard spans = %d, want 1..2", counts["shard"])
	}
	if counts["host"] != nHosts {
		t.Errorf("host spans = %d, want %d", counts["host"], nHosts)
	}
	if len(hosts) != nHosts {
		t.Errorf("distinct host tags = %d, want %d", len(hosts), nHosts)
	}
	if counts["check"] != st.Requirements {
		t.Errorf("check spans = %d, want %d requirements", counts["check"], st.Requirements)
	}
	if counts["attempt"] != st.Attempts {
		t.Errorf("attempt spans = %d, want %d attempts", counts["attempt"], st.Attempts)
	}

	if got := m.Counter("fleet.hosts"); got != nHosts {
		t.Errorf("fleet.hosts = %d, want %d", got, nHosts)
	}
	if h := m.Histogram("fleet.host_wall"); h.Count != nHosts {
		t.Errorf("fleet.host_wall count = %d, want %d", h.Count, nHosts)
	}
}

// TestEmptySweepRecordsMetrics: a sweep of no targets is still a sweep.
// The registry counts it, so fleet.sweeps agrees with a caller that
// counts its Sweep calls, and every gauge it sets is finite.
func TestEmptySweepRecordsMetrics(t *testing.T) {
	m := telemetry.NewMetrics()
	NewCoordinator().Sweep(nil, Options{Metrics: m})
	if got := m.Counter("fleet.sweeps"); got != 1 {
		t.Fatalf("fleet.sweeps = %d after one empty sweep, want 1", got)
	}
	if got := m.Counter("fleet.hosts"); got != 0 {
		t.Errorf("fleet.hosts = %d, want 0", got)
	}
	for _, name := range []string{"fleet.utilization", "fleet.load_imbalance"} {
		if v, ok := m.Gauge(name); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (set %v), want a finite value", name, v, ok)
		}
	}
}

// TestSweepTracedMatchesUntracedVerdicts: tracing must observe, never
// perturb — same fleet, same verdicts with and without a tracer.
func TestSweepTracedMatchesUntracedVerdicts(t *testing.T) {
	plain, _ := LinuxFleet(4)
	traced, _ := LinuxFleet(4)
	repPlain, _ := Sweep(plain, Options{Shards: 2, Workers: 2})
	tr := telemetry.New(nil)
	repTraced, _ := Sweep(traced, Options{Shards: 2, Workers: 2, Trace: tr, Metrics: telemetry.NewMetrics()})
	p1, f1, i1 := repPlain.Counts()
	p2, f2, i2 := repTraced.Counts()
	if p1 != p2 || f1 != f2 || i1 != i2 {
		t.Errorf("verdicts diverge: untraced %d/%d/%d, traced %d/%d/%d", p1, f1, i1, p2, f2, i2)
	}
}

// TestFullyCachedSweepFiniteStats is the LoadImbalance NaN regression: a
// 100%-cache-hit incremental re-sweep (no host re-executed) must report
// finite ratios everywhere, render cleanly, and stay valid JSON.
func TestFullyCachedSweepFiniteStats(t *testing.T) {
	const nHosts = 8
	targets, _ := LinuxFleet(nHosts)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 4, Workers: 2})

	// Nothing drifted: every host replays from the cache.
	rep, st := coord.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true, Trace: telemetry.New(nil)})
	for _, h := range rep.Hosts {
		if !h.FromCache {
			t.Fatalf("host %s not cached — the sweep is not the regression shape", h.Target)
		}
	}
	if st.CachedHosts != nHosts || st.CacheHitRate() != 1 {
		t.Fatalf("cached = %d, hit rate = %v", st.CachedHosts, st.CacheHitRate())
	}
	for name, v := range map[string]float64{
		"LoadImbalance": st.LoadImbalance,
		"Utilization":   st.Utilization(),
		"CacheHitRate":  st.CacheHitRate(),
		"DedupRate":     st.DedupRate(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}
	if strings.Contains(st.Summary(), "NaN") {
		t.Errorf("summary contains NaN: %s", st.Summary())
	}
	b, err := json.Marshal(st.ShardTable("cached sweep"))
	if err != nil {
		t.Fatalf("stats table does not JSON-encode: %v", err)
	}
	if !json.Valid(b) {
		t.Error("encoded stats table is invalid JSON")
	}
}

// TestAggregateZeroWallShards hits the zero-denominator directly: every
// host replayed and every shard wall zero (the pathological form the
// LoadImbalance guard exists for) must define the ratio as 0, not NaN.
func TestAggregateZeroWallShards(t *testing.T) {
	results := []HostResult{
		{Target: "host-00", Shard: 0, FromCache: true},
		{Target: "host-01", Shard: 1, FromCache: true},
	}
	st := aggregate(results, []time.Duration{0, 0}, engine.PoolStats{Workers: 2}, Options{
		Shards: 2, Workers: 1, Incremental: true, Mode: core.CheckOnly,
	})
	if st.ActiveShards != 2 {
		t.Fatalf("active shards = %d, want 2", st.ActiveShards)
	}
	if math.IsNaN(st.LoadImbalance) || math.IsInf(st.LoadImbalance, 0) {
		t.Fatalf("LoadImbalance = %v, want finite", st.LoadImbalance)
	}
	if st.LoadImbalance != 0 {
		t.Errorf("LoadImbalance = %v, want 0 when no shard did measurable work", st.LoadImbalance)
	}
	if u := st.Utilization(); math.IsNaN(u) || math.IsInf(u, 0) {
		t.Errorf("Utilization = %v, want finite", u)
	}
}

// TestTracedIncrementalAndDedupSweep exercises the cache-replay and
// dedup-hit span shapes: cached hosts carry cached=true and no check
// children; deduped checks carry dedup_hit with no attempt children.
func TestTracedIncrementalAndDedupSweep(t *testing.T) {
	targets, _ := LinuxFleet(4)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 2, Workers: 2})

	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	_, st := coord.Sweep(targets, Options{Shards: 2, Workers: 2, Incremental: true, Trace: tr})
	tr.Flush()
	recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	cachedHosts := 0
	roots[0].Walk(func(n *telemetry.Node) {
		if n.Name == "host" && n.Tags["cached"] == "true" {
			cachedHosts++
			if len(n.Children) != 0 {
				t.Errorf("cached host %s has %d children, want none", n.Tags["host"], len(n.Children))
			}
		}
	})
	if cachedHosts != st.CachedHosts {
		t.Errorf("cached host spans = %d, want %d", cachedHosts, st.CachedHosts)
	}

	// Dedup sweep: replayed checks are tagged and attempt-free.
	ddTargets, _ := LinuxFleet(4)
	var ddBuf bytes.Buffer
	ddTr := telemetry.New(&ddBuf)
	_, ddSt := Sweep(ddTargets, Options{Shards: 2, Workers: 2, Dedup: true, Trace: ddTr})
	ddTr.Flush()
	ddRecs, err := telemetry.ReadJSONL(&ddBuf)
	if err != nil {
		t.Fatalf("read dedup trace: %v", err)
	}
	hits := 0
	for _, root := range telemetry.BuildTree(ddRecs) {
		root.Walk(func(n *telemetry.Node) {
			if n.Name == "check" && n.Tags["dedup_hit"] == "true" {
				hits++
				if len(n.Children) != 0 {
					t.Errorf("dedup-hit check %s has attempt children", n.Tags["finding"])
				}
			}
		})
	}
	if hits != ddSt.DedupHits {
		t.Errorf("dedup-hit spans = %d, want %d", hits, ddSt.DedupHits)
	}
}

// spanCounter is a telemetry sink that counts ended spans by name.
type spanCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *spanCounter) Offer(sd telemetry.SpanData) {
	c.mu.Lock()
	c.n[sd.Name]++
	c.mu.Unlock()
}

// sweepSpanBudget is the exact span count, by name, of a traced
// one-shard sweep over fault-free hosts with checks requirements each:
// the sweep and its shard, and per host evaluation one host span, one
// check span per requirement and one attempt span per check.
func sweepSpanBudget(hosts, checks int) map[string]int {
	return map[string]int{
		"sweep":   1,
		"shard":   1,
		"host":    hosts,
		"check":   hosts * checks,
		"attempt": hosts * checks,
	}
}

// spanBudgetDiff lists every span name whose count differs from the
// budget, missing and unbudgeted names included.
func spanBudgetDiff(got, budget map[string]int) []string {
	var out []string
	for name, n := range got {
		if n != budget[name] {
			out = append(out, fmt.Sprintf("%s: %d spans, budget %d", name, n, budget[name]))
		}
	}
	for name, n := range budget {
		if _, ok := got[name]; !ok {
			out = append(out, fmt.Sprintf("%s: 0 spans, budget %d", name, n))
		}
	}
	sort.Strings(out)
	return out
}

// tracedSweepSpans sweeps targets once on one shard, traced into a
// counting sink, and returns the span counts and the sweep's stats.
func tracedSweepSpans(targets []Target) (map[string]int, FleetStats) {
	c := &spanCounter{n: map[string]int{}}
	tr := telemetry.New(io.Discard, telemetry.WithSink(c))
	_, st := Sweep(targets, Options{Shards: 1, Workers: 2, Trace: tr})
	tr.Flush()
	return c.n, st
}

// TestTracingOverheadGate is the tracing-overhead regression gate (make
// smoke-trace). It counts instead of timing, so machine load cannot fail
// it: a traced sweep of 16 hosts must emit exactly the spans of
// sweepSpanBudget, and may allocate at most maxExtraAllocs objects more
// than an untraced sweep. Spans and their tags are pooled, so what
// tracing adds is a handful of per-sweep objects, independent of the
// number of hosts; one extra allocation per host evaluation breaks the
// bound. The relative wall-clock cost of tracing is
// telemetry.overhead_pct in cmd/vdo-perf.
func TestTracingOverheadGate(t *testing.T) {
	const (
		nHosts         = 16
		maxExtraAllocs = 16
	)
	targets, _ := LinuxFleet(nHosts)
	checks := targets[0].Catalog.Len()
	got, st := tracedSweepSpans(targets)
	if st.Attempts != nHosts*checks {
		t.Fatalf("attempts = %d, want %d: the fleet is not fault-free", st.Attempts, nHosts*checks)
	}
	for _, e := range spanBudgetDiff(got, sweepSpanBudget(nHosts, checks)) {
		t.Error(e)
	}

	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget measured without -race")
	}
	// A collection empties the span pools, and refilling them would be
	// counted as tracing cost; none runs while allocations are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := telemetry.New(io.Discard, telemetry.WithSink(&spanCounter{n: map[string]int{}}))
	allocs := func(trace *telemetry.Tracer) float64 {
		return testing.AllocsPerRun(5, func() {
			Sweep(targets, Options{Shards: 1, Workers: 2, Trace: trace})
		})
	}
	off, on := allocs(nil), allocs(tr)
	t.Logf("traced sweep of %d hosts: %.0f allocs, untraced %.0f", nHosts, on, off)
	if on-off > maxExtraAllocs {
		t.Fatalf("tracing adds %.0f allocs to a sweep of %d hosts, budget %d", on-off, nHosts, maxExtraAllocs)
	}
}

// TestTracingOverheadGateCatchesExtraSpans seeds the regressions the
// span budget exists for into the counts of a real traced sweep: one
// extra child span per check, and one extra attempt per host.
func TestTracingOverheadGateCatchesExtraSpans(t *testing.T) {
	const nHosts = 4
	targets, _ := LinuxFleet(nHosts)
	checks := targets[0].Catalog.Len()
	budget := sweepSpanBudget(nHosts, checks)
	for name, seed := range map[string]func(map[string]int){
		"extra child span per check": func(n map[string]int) { n["probe"] += n["check"] },
		"extra attempt per host":     func(n map[string]int) { n["attempt"] += n["host"] },
	} {
		got, _ := tracedSweepSpans(targets)
		if diff := spanBudgetDiff(got, budget); len(diff) != 0 {
			t.Fatalf("unseeded sweep is already off budget: %v", diff)
		}
		seed(got)
		if len(spanBudgetDiff(got, budget)) == 0 {
			t.Errorf("%s: the span budget does not catch it", name)
		}
	}
}
