package loadgen

import (
	"runtime"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
)

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPrimedFleetHeapPerHost is the retained-heap gate of a watched
// fleet: synthesizing hosts from the default topology, watching every
// one with a Streamer and priming it may keep at most maxBytesPerHost of
// live heap per host. Hosts of one class share their dependency index
// and finding metadata and keep their state without one heap object per
// entry; per-host copies of either push the figure well past the bound.
// It is the heap counterpart of fleet's TestCachedSweepAllocsPerHost.
func TestPrimedFleetHeapPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the live heap")
	}
	const (
		n               = 2000
		maxBytesPerHost = 7500
	)
	// One host first, so the process-wide hardened baseline is built
	// before the measurement starts.
	if _, err := Synthesize(DefaultTopology(), 1, 1); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	f, err := Synthesize(DefaultTopology(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := fleet.NewStreamer(fleet.NewCoordinator(), fleet.StreamOptions{Mode: core.CheckOnly, Dedup: true})
	for _, h := range f.Hosts() {
		s.Watch(h.Target(), h.Linux.Log())
	}
	if fr := s.Flush(0); len(fr.Hosts) != n {
		t.Fatalf("priming flush evaluated %d hosts, want %d", len(fr.Hosts), n)
	}
	after := liveHeap()
	perHost := float64(after-before) / n
	runtime.KeepAlive(f)
	runtime.KeepAlive(s)
	t.Logf("primed fleet of %d hosts: %.0f live bytes per host", n, perHost)
	if perHost > maxBytesPerHost {
		t.Fatalf("live heap %.0f bytes per primed host, want <= %d", perHost, maxBytesPerHost)
	}
}
