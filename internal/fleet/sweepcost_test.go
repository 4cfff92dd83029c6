package fleet

import (
	"runtime"
	"sync"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// declReq declares whatever its keys func returns, panics included.
type declReq struct {
	core.Finding
	core.CheckFunc
	core.EnforceFunc
	keys func() []host.StateKey
}

func (r *declReq) CheckStateKeys() []host.StateKey { return r.keys() }

// perRequirementLocalization is the unmemoised reference count: one
// core.CheckKeys call per catalogue entry per target.
func perRequirementLocalization(ts []Target) (indexed, unindexed int) {
	for _, t := range ts {
		if t.Catalog == nil {
			continue
		}
		for _, req := range t.Catalog.All() {
			if _, ok := core.CheckKeys(req); ok {
				indexed++
			} else {
				unindexed++
			}
		}
	}
	return indexed, unindexed
}

func TestSweepLocalizationMatchesPerRequirementCount(t *testing.T) {
	pass := func() core.CheckStatus { return core.CheckPass }
	h := host.NewUbuntu1804()
	mixed := stig.UbuntuCatalog(h)
	mixed.MustRegister(&plainReq{Finding: core.Finding{ID: "V-900001"}, CheckFunc: pass})
	mixed.MustRegister(&declReq{Finding: core.Finding{ID: "V-900002"}, CheckFunc: pass,
		keys: func() []host.StateKey { return nil }})
	mixed.MustRegister(&declReq{Finding: core.Finding{ID: "V-900003"}, CheckFunc: pass,
		keys: func() []host.StateKey { panic("broken declaration") }})
	linux, _ := LinuxFleet(6)
	fleets := map[string][]Target{
		"LinuxFleet": linux,
		"mixed": {
			{Name: "m0", Catalog: mixed, Version: h.Log()},
			{Name: "m1", Catalog: mixed, Version: h.Log()},
			{Name: "plain", Catalog: stig.UbuntuCatalog(h)},
			{Name: "nil-cat"},
		},
	}
	for name, ts := range fleets {
		t.Run(name, func(t *testing.T) {
			coord := NewCoordinator()
			for _, opts := range []Options{
				{Shards: 2, Workers: 1},
				{Shards: 2, Workers: 1, Incremental: true, Dedup: true}, // all cached
			} {
				_, st := coord.Sweep(ts, opts)
				idx, unidx := perRequirementLocalization(ts)
				if st.IndexedChecks != idx || st.UnindexedChecks != unidx {
					t.Fatalf("indexed/unindexed = %d/%d, per-requirement count %d/%d",
						st.IndexedChecks, st.UnindexedChecks, idx, unidx)
				}
			}
		})
	}
	// A Register between sweeps is seen by the next one.
	mixed.MustRegister(&plainReq{Finding: core.Finding{ID: "V-900004"}, CheckFunc: pass})
	_, st := Sweep(fleets["mixed"], Options{Shards: 2, Workers: 1})
	if idx, unidx := perRequirementLocalization(fleets["mixed"]); st.IndexedChecks != idx || st.UnindexedChecks != unidx {
		t.Fatalf("after Register indexed/unindexed = %d/%d, per-requirement count %d/%d",
			st.IndexedChecks, st.UnindexedChecks, idx, unidx)
	}
}

// TestConcurrentSweepsOverSharedCatalogues runs cached and uncached
// sweeps from several coordinators over the same catalogues at once; the
// declaration memo's first fill races with its readers. `make race` runs
// it under the race detector.
func TestConcurrentSweepsOverSharedCatalogues(t *testing.T) {
	targets, _ := LinuxFleet(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord := NewCoordinator()
			for i := 0; i < 3; i++ {
				_, st := coord.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true, Dedup: true})
				if st.IndexedChecks != 8*8 || st.UnindexedChecks != 0 {
					t.Errorf("indexed/unindexed = %d/%d, want 64/0", st.IndexedChecks, st.UnindexedChecks)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCachedSweepAllocsPerHost is the allocation gate on the sweep's
// replay path: an all-cached incremental sweep may allocate at
// most maxAllocsPerHost per host at either fleet size, and at most
// maxAllocsPerAddedHost more per host the larger fleet adds. The job
// buffer, cost snapshot and scheduler queues are Coordinator scratch and
// replayed hosts allocate nothing, so the only object a sweep allocates
// in proportion to the fleet is the report's Hosts slice: one per sweep,
// whatever its length. A per-host allocation (a closure, a copied
// target, a queue grown by append) puts the slope at 1 or more.
func TestCachedSweepAllocsPerHost(t *testing.T) {
	const (
		maxAllocsPerHost      = 3
		maxAllocsPerAddedHost = 0.05
	)
	allocs := func(n int) float64 {
		targets, _ := LinuxFleet(n)
		coord := NewCoordinator()
		opts := Options{Shards: 2, Workers: 1, Incremental: true, Dedup: true}
		coord.Sweep(targets, opts) // prime the cache
		return testing.AllocsPerRun(20, func() {
			if _, st := coord.Sweep(targets, opts); st.CachedHosts != n {
				t.Fatalf("cached %d of %d hosts, want all", st.CachedHosts, n)
			}
		})
	}
	small, large := 64, 256
	a, b := allocs(small), allocs(large)
	slope := (b - a) / float64(large-small)
	t.Logf("all-cached sweep: %.0f allocs at %d hosts, %.0f at %d, %.2f per added host", a, small, b, large, slope)
	if a/float64(small) > maxAllocsPerHost || b/float64(large) > maxAllocsPerHost {
		t.Fatalf("all-cached sweep allocs per host = %.2f (n=%d), %.2f (n=%d); want each <= %d",
			a/float64(small), small, b/float64(large), large, maxAllocsPerHost)
	}
	if slope > maxAllocsPerAddedHost {
		t.Fatalf("all-cached sweep allocs per added host = %.3f; want <= %.2f", slope, maxAllocsPerAddedHost)
	}
}

// TestCachedSweepBytesPerHost is the byte counterpart of
// TestCachedSweepAllocsPerHost, which counts objects and so cannot see
// how large the one object in proportion to the fleet is: the report's
// Hosts slice. An all-cached incremental sweep of 256 hosts may allocate
// at most maxBytesPerHost bytes per host, and each host the larger fleet
// adds over a 64-host one at most as much; the slope leaves out the
// sweep's fixed cost (stats rows, dedup memo, shard tasks), about
// 1.8 KB, which weighs on the small fleet. A replayed result carries no
// run telemetry (its Stats is nil), so the slice costs 64 bytes a host;
// a HostResult holding a whole RunStats inline costs 168.
func TestCachedSweepBytesPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocations")
	}
	const (
		maxBytesPerHost = 96
		runs            = 20
	)
	bytes := func(n int) float64 {
		targets, _ := LinuxFleet(n)
		coord := NewCoordinator()
		opts := Options{Shards: 2, Workers: 1, Incremental: true, Dedup: true}
		coord.Sweep(targets, opts) // prime the cache
		coord.Sweep(targets, opts) // grow the scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, st := coord.Sweep(targets, opts); st.CachedHosts != n {
				t.Fatalf("cached %d of %d hosts, want all", st.CachedHosts, n)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := 64, 256
	a, b := bytes(small), bytes(large)
	perHost, slope := b/float64(large), (b-a)/float64(large-small)
	t.Logf("all-cached sweep: %.0f bytes at %d hosts, %.0f at %d: %.1f per host, %.1f per added host",
		a, small, b, large, perHost, slope)
	if perHost > maxBytesPerHost || slope > maxBytesPerHost {
		t.Fatalf("all-cached sweep allocates %.1f bytes per host at %d hosts and %.1f per added host; want both <= %d",
			perHost, large, slope, maxBytesPerHost)
	}
}

// TestFlushPlanAllocsPerKeyedEvent pins the per-event cost of the push
// channel up to a delta's plan: the subscription records each keyed
// event in the host's reused key buffer, the flush takes the record,
// and Streamer.plan looks the keys up as they are, so delivering and
// planning 256 events allocates no more than one. Only the affected
// subset, one slice per host, is allocated. A per-event allocation (a
// rendered key, a grown buffer) would add 255.
func TestFlushPlanAllocsPerKeyedEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	targets, hosts := LinuxFleet(1)
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 1, Workers: 1})
	s.Watch(targets[0], hosts[0].Log())
	s.Flush(0) // prime
	sh := s.hosts[targets[0].Name]
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			for i := 0; i < n; i++ {
				hosts[0].Install(host.BannedPackages[i%len(host.BannedPackages)], "1")
			}
			s.mu.Lock()
			sh.take()
			s.mu.Unlock()
			if events, only := sh.plan(); events != n || len(only) == 0 {
				t.Fatalf("plan = (%d events, %v), want %d events and a subset", events, only, n)
			}
		})
	}
	allocs(256) // grow both key buffers once
	one, many := allocs(1), allocs(256)
	t.Logf("deliver and plan: %.0f allocs for 1 keyed event, %.0f for 256", one, many)
	if many > one {
		t.Fatalf("delivering and planning 256 keyed events allocates %.0f times but one %.0f; want no allocation per event", many, one)
	}
}
