package fleet

import (
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
	keys func() []string
}

func (r *declReq) CheckStateKeys() []string { return r.keys() }

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
		keys: func() []string { return nil }})
	mixed.MustRegister(&declReq{Finding: core.Finding{ID: "V-900003"}, CheckFunc: pass,
		keys: func() []string { panic("broken declaration") }})
	linux, _ := LinuxFleet(6)
	fleets := map[string][]Target{
		"LinuxFleet": linux,
		"mixed": {
			{Name: "m0", Catalog: mixed, Version: h.Log().Version},
			{Name: "m1", Catalog: mixed, Version: h.Log().Version},
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

// TestCachedSweepAllocsPerHost is the allocation gate on the fallback
// sweep's replay path: an all-cached incremental sweep may allocate at
// most maxAllocsPerHost per host, at either fleet size, with the
// per-host slope between the two sizes under the same cap, so the cost
// stays linear with a small constant as fleets grow.
func TestCachedSweepAllocsPerHost(t *testing.T) {
	const maxAllocsPerHost = 3
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
	if a/float64(small) > maxAllocsPerHost || b/float64(large) > maxAllocsPerHost || slope > maxAllocsPerHost {
		t.Fatalf("all-cached sweep allocs per host = %.2f (n=%d), %.2f (n=%d), slope %.2f; want each <= %d",
			a/float64(small), small, b/float64(large), large, slope, maxAllocsPerHost)
	}
}
