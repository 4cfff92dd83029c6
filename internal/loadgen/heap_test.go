package loadgen

import (
	"runtime"
	"testing"
	"time"

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

// TestWatchedFleetRetainedBytesPerEvent is the bounded-state gate of a
// fleet under endless churn: once warm, keyed mutations may grow the
// live heap by at most maxBytesPerEvent per churn event, both with a
// Streamer watching every host (push) and with incremental sweeps and no
// Streamer (sweep). Nothing on the event path may keep history: an
// event log that retained its events, or a per-host record of delivered
// keys that a flush never reset, would grow the heap with every event.
func TestWatchedFleetRetainedBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the live heap")
	}
	const (
		n                = 200
		warmup, events   = 20_000, 100_000
		evaluateEvery    = 1000
		maxBytesPerEvent = 8
	)
	// The default mix's package and service churn: every mutation is
	// keyed, the fleet keeps its size, and each host's state stops
	// growing early in the warm-up. Config edits are left out because
	// they keep adding slots (a db host may carry 128 config keys) long
	// after it, which is state, not history.
	keyed := ChurnMix{PackageUpgrade: 30, PackageDowngrade: 5, PackageInstall: 8, PackageRemove: 8, ServiceFlap: 10}
	for _, mode := range []string{"push", "sweep"} {
		t.Run(mode, func(t *testing.T) {
			f, err := Synthesize(DefaultTopology(), n, 1)
			if err != nil {
				t.Fatal(err)
			}
			coord := fleet.NewCoordinator()
			var evaluate func()
			if mode == "push" {
				s := fleet.NewStreamer(coord, fleet.StreamOptions{Mode: core.CheckOnly, Dedup: true})
				for _, h := range f.Hosts() {
					s.Watch(h.Target(), h.Linux.Log())
				}
				evaluate = func() { s.Flush(0) }
			} else {
				opts := fleet.Options{Mode: core.CheckOnly, Incremental: true}
				evaluate = func() { coord.Sweep(f.Targets(), opts) }
			}
			c := NewChurn(f, keyed, 1)
			drive := func(k int) {
				for i := 1; i <= k; i++ {
					c.Step()
					if i%evaluateEvery == 0 {
						evaluate()
					}
				}
			}
			evaluate()
			drive(warmup)
			before := liveHeap()
			drive(events)
			after := liveHeap()
			runtime.KeepAlive(f)
			runtime.KeepAlive(evaluate)
			perEvent := (float64(after) - float64(before)) / events
			t.Logf("%s fleet of %d hosts: %.1f live bytes retained per churn event over %d events", mode, n, perEvent, events)
			if perEvent > maxBytesPerEvent {
				t.Fatalf("live heap grew %.1f bytes per churn event, want <= %d", perEvent, maxBytesPerEvent)
			}
		})
	}
}

// totalAlloc returns the cumulative bytes the process has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestReplayBytesPerEvent is the allocation-rate gate of the push path:
// a primed 2,000-host push Replay under the default churn mix at 8,000
// ev/s, flushed every 10ms with a 500ms fallback sweep, may allocate at
// most maxBytesPerEvent heap bytes per applied event over 2s of virtual
// time. The bytes allocated per event decide how often the collector
// runs, and so the detection tail; per-host or per-flush bookkeeping
// rebuilt on every evaluation pushes the figure past the bound. It is
// the push-path counterpart of fleet's TestCachedSweepAllocsPerHost.
func TestReplayBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocations")
	}
	const (
		n                = 2000
		maxBytesPerEvent = 1500
	)
	f, err := Synthesize(DefaultTopology(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DriverOptions{
		SweepEvery: 500 * time.Millisecond,
		Push:       true,
		Window:     10 * time.Millisecond,
		Rate:       8000,
	}
	r, err := NewReplay(f, NewChurn(f, DefaultMix(), 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	before := totalAlloc()
	for now := opts.Window; now <= 2*time.Second; now += opts.Window {
		r.Tick(now)
	}
	bytes := totalAlloc() - before
	st := r.Stats()
	if st.Events == 0 || st.Sweeps == 0 {
		t.Fatalf("replay applied %d events and ran %d fallback sweeps, want both > 0", st.Events, st.Sweeps)
	}
	perEvent := float64(bytes) / float64(st.Events)
	t.Logf("push replay of %d hosts: %d events, %d fallback sweeps, %.0f bytes per event", n, st.Events, st.Sweeps, perEvent)
	if perEvent > maxBytesPerEvent {
		t.Fatalf("push replay allocated %.0f bytes per event, want <= %d", perEvent, maxBytesPerEvent)
	}
}
