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

// TestJoinLeaveRetainedBytesPerCycle is the bounded-state gate of a
// fleet whose membership churns: once warm, cycles of join → watch →
// flush → sweep → leave → unwatch → sweep may grow the live heap by at
// most maxBytesPerCycle per cycle, with a Streamer (push) and with
// incremental sweeps alone (sweep, where a departed host is invalidated
// instead of unwatched). The push row sweeps the Streamer's own
// coordinator, so a sweep's cache entries and a flush's share one map.
// Every cycle joins and leaves distinct hosts, as loadgen names them, so
// any per-host record a departure leaves behind (a cache entry, an audit
// cost, a view line, an index reference) grows the heap with every
// cycle. The last sweep of a cycle runs at the base size, so a target
// list that kept its departed tail would keep the last cycle's hosts
// alive. The warm-up cycle sweeps a list built by hand, so it grows
// every map and scratch buffer the cycles need but leaves the Fleet's
// own target buffer at the base size.
func TestJoinLeaveRetainedBytesPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the live heap")
	}
	const (
		n                = 200
		joins            = 32
		cycles           = 32
		maxBytesPerCycle = 512
	)
	for _, mode := range []string{"push", "sweep"} {
		t.Run(mode, func(t *testing.T) {
			f, err := Synthesize(DefaultTopology(), n, 1)
			if err != nil {
				t.Fatal(err)
			}
			coord := fleet.NewCoordinator()
			opts := fleet.Options{Mode: core.CheckOnly, Incremental: true}
			var s *fleet.Streamer
			if mode == "push" {
				s = fleet.NewStreamer(coord, fleet.StreamOptions{Mode: core.CheckOnly, Dedup: true})
				for _, h := range f.Hosts() {
					s.Watch(h.Target(), h.Linux.Log())
				}
				s.Flush(0)
			}
			handBuilt := func() []fleet.Target {
				ts := make([]fleet.Target, 0, f.Size())
				for _, h := range f.Hosts() {
					ts = append(ts, h.Target())
				}
				return ts
			}
			joined := make([]string, joins)
			cycle := func(targets func() []fleet.Target) {
				for i := range joined {
					h := f.Join()
					joined[i] = h.Name
					if s != nil {
						s.Watch(h.Target(), h.Linux.Log())
					}
				}
				if s != nil {
					s.Flush(0)
				}
				coord.Sweep(targets(), opts)
				for _, name := range joined {
					f.Leave(name)
					if s != nil {
						s.Unwatch(name)
					} else {
						coord.Invalidate(name)
					}
				}
				coord.Sweep(targets(), opts)
			}
			coord.Sweep(f.Targets(), opts)
			cycle(handBuilt)
			before := liveHeap()
			for i := 0; i < cycles; i++ {
				cycle(f.Targets)
			}
			after := liveHeap()
			runtime.KeepAlive(f)
			runtime.KeepAlive(s)
			runtime.KeepAlive(coord)
			perCycle := (float64(after) - float64(before)) / cycles
			t.Logf("%s fleet of %d hosts: %.0f live bytes retained per cycle of %d joins and leaves over %d cycles",
				mode, n, perCycle, joins, cycles)
			if perCycle > maxBytesPerCycle {
				t.Fatalf("live heap grew %.0f bytes per join/leave cycle, want <= %d", perCycle, maxBytesPerCycle)
			}
		})
	}
}

// TestWarmTargetsAllocsPerCall pins that a sweep's target list is the
// Fleet's own buffer: once it has been filled at the current
// size, Targets allocates nothing. A list built afresh costs one
// 40-byte Target per member on every sweep.
func TestWarmTargetsAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	f, err := Synthesize(DefaultTopology(), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Targets()
	allocs := testing.AllocsPerRun(100, func() {
		if ts := f.Targets(); len(ts) != f.Size() {
			t.Fatalf("Targets listed %d hosts, want %d", len(ts), f.Size())
		}
	})
	t.Logf("warm Targets over %d hosts: %.0f allocs", f.Size(), allocs)
	if allocs != 0 {
		t.Fatalf("warm Targets allocates %.0f objects per call, want 0", allocs)
	}
}

// totalAlloc returns the cumulative bytes the process has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestReplayBytesPerEvent is the allocation-rate gate of both
// evaluation paths: a primed 2,000-host Replay under the default churn mix
// at 8,000 ev/s may allocate at most maxBytesPerEvent heap bytes per
// applied event. Push mode flushes every 10ms over 2s of virtual time;
// sweep mode runs an incremental sweep every 250ms over 4s, re-auditing
// every changed host in full through the catalogue runner. The bytes
// allocated per event decide how often the collector runs, and so the
// detection tail; per-host, per-flush or per-check bookkeeping rebuilt on
// every evaluation pushes the figure past the bound. It is the replay
// counterpart of fleet's TestCachedSweepAllocsPerHost.
func TestReplayBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocations")
	}
	const n = 2000
	for _, tc := range []struct {
		name             string
		opts             DriverOptions
		tick, duration   time.Duration
		maxBytesPerEvent float64
	}{
		{"push", DriverOptions{Push: true, Window: 10 * time.Millisecond, Rate: 8000},
			10 * time.Millisecond, 2 * time.Second, 1000},
		{"sweep", DriverOptions{SweepEvery: 250 * time.Millisecond, Rate: 8000},
			250 * time.Millisecond, 4 * time.Second, 1600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Synthesize(DefaultTopology(), n, 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReplay(f, NewChurn(f, DefaultMix(), 1), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			before := totalAlloc()
			for now := tc.tick; now <= tc.duration; now += tc.tick {
				r.Tick(now)
			}
			bytes := totalAlloc() - before
			st := r.Stats()
			if st.Events == 0 || st.Flushes+st.Sweeps == 0 {
				t.Fatalf("replay applied %d events in %d flushes and %d sweeps, want events and evaluations",
					st.Events, st.Flushes, st.Sweeps)
			}
			perEvent := float64(bytes) / float64(st.Events)
			t.Logf("%s replay of %d hosts: %d events, %d flushes, %d sweeps, %.0f bytes per event",
				tc.name, n, st.Events, st.Flushes, st.Sweeps, perEvent)
			if perEvent > tc.maxBytesPerEvent {
				t.Fatalf("%s replay allocated %.0f bytes per event, want <= %.0f", tc.name, perEvent, tc.maxBytesPerEvent)
			}
		})
	}
}
