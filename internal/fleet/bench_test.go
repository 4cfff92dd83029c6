package fleet

import (
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/telemetry"
)

// The fleet benchmarks model the live-audit shape: every check pays a
// probe round-trip (100µs here), so wall-clock scales with parallelism.
// `make bench` runs these with -benchmem and regenerates BENCH_fleet.json
// via cmd/fleetaudit -bench.

const benchProbeDelay = 100 * time.Microsecond

func benchFleet(n int) []Target {
	targets, _ := LinuxFleet(n)
	for i := range targets {
		targets[i] = WithProbeDelay(targets[i], benchProbeDelay)
	}
	return targets
}

// BenchmarkFleetSequentialBaseline is the pre-fleet shape: one RunEngine
// per host, one after another, single worker.
func BenchmarkFleetSequentialBaseline(b *testing.B) {
	targets := benchFleet(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range targets {
			t.Catalog.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 1})
		}
	}
}

// BenchmarkFleetSweep measures a full sharded sweep of 16 hosts at 1, 4
// and 16 shards (4 workers per shard).
func BenchmarkFleetSweep(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "shards-1", 4: "shards-4", 16: "shards-16"}[shards], func(b *testing.B) {
			targets := benchFleet(16)
			opts := Options{Shards: shards, Workers: 4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Sweep(targets, opts)
			}
		})
	}
}

// BenchmarkFleetSkewedSweep measures the work-stealing win on the skewed
// fleet shape: one host 10× slower than its shard co-tenants. Static
// scheduling paces the sweep at the slow bucket; stealing drains the
// bucket's healthy hosts onto idle shards. `make bench-steal` runs this
// pair side by side.
func BenchmarkFleetSkewedSweep(b *testing.B) {
	for _, mode := range []struct {
		name  string
		sched Scheduling
	}{{"static", ScheduleStatic}, {"stealing", ScheduleWorkStealing}} {
		b.Run(mode.name, func(b *testing.B) {
			targets, _ := SkewedFleet(256, 16, 20*time.Microsecond, 10)
			coord := NewCoordinator()
			opts := Options{Shards: 16, Workers: 4, Scheduling: mode.sched}
			coord.Sweep(targets, opts) // learn per-host costs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coord.Sweep(targets, opts)
			}
		})
	}
}

// BenchmarkFleetDedupSweep measures cross-host check dedup on a
// homogeneous probe-delayed fleet: with dedup on, each distinct check
// executes once per sweep instead of once per host.
func BenchmarkFleetDedupSweep(b *testing.B) {
	for _, dedup := range []bool{false, true} {
		name := "off"
		if dedup {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			targets := benchFleet(16)
			opts := Options{Shards: 4, Workers: 4, Dedup: dedup}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Sweep(targets, opts)
			}
		})
	}
}

// BenchmarkTelemetrySweepTraced measures the full-instrumentation tax on
// a sweep: telemetry off (nil tracer/metrics), aggregate-only spans, and
// spans with metrics. `make bench-telemetry` runs this alongside the
// micro benchmarks in internal/telemetry.
func BenchmarkTelemetrySweepTraced(b *testing.B) {
	for _, mode := range []string{"off", "spans", "spans+metrics"} {
		b.Run(mode, func(b *testing.B) {
			targets := benchFleet(16)
			opts := Options{Shards: 4, Workers: 4}
			if mode != "off" {
				opts.Trace = telemetry.New(nil)
			}
			if mode == "spans+metrics" {
				opts.Metrics = telemetry.NewMetrics()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Sweep(targets, opts)
			}
		})
	}
}

// BenchmarkFleetIncrementalSweep measures the steady-state re-sweep: one
// host of 16 drifts between sweeps, the other 15 replay from cache.
func BenchmarkFleetIncrementalSweep(b *testing.B) {
	targets, hosts := LinuxFleet(16)
	for i := range targets {
		targets[i] = WithProbeDelay(targets[i], benchProbeDelay)
	}
	coord := NewCoordinator()
	opts := Options{Shards: 16, Workers: 4, Incremental: true}
	coord.Sweep(targets, Options{Shards: 16, Workers: 4}) // prime
	rng := newRng(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.DriftLinux(hosts[i%16], 1, rng)
		coord.Sweep(targets, opts)
	}
}

// BenchmarkFleetCachedSweep measures the push daemon's fallback sweep:
// an incremental sweep in which every host replays from the cache, with
// no probe delay, so the figure is the sweep's own serial and per-host
// cost (sorting, scheduling, cache lookups, localization counts, the
// roll-up). Run with -benchmem; TestCachedSweepAllocsPerHost gates its
// allocations.
func BenchmarkFleetCachedSweep(b *testing.B) {
	targets, _ := LinuxFleet(1000)
	coord := NewCoordinator()
	opts := Options{Shards: 2, Workers: 1, Incremental: true, Dedup: true}
	coord.Sweep(targets, opts) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := coord.Sweep(targets, opts); st.CachedHosts != len(targets) {
			b.Fatalf("cached %d of %d hosts", st.CachedHosts, len(targets))
		}
	}
}
