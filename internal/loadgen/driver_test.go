package loadgen

import (
	"slices"
	"strings"
	"testing"
	"time"

	"veridevops/internal/telemetry"
)

func replay(t *testing.T, seed int64) LoadStats {
	t.Helper()
	f, err := Synthesize(smallTopology(), 30, seed)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChurn(f, DefaultMix(), seed+1)
	st, err := Run(f, c, DriverOptions{
		Duration:   10 * time.Second,
		SweepEvery: 500 * time.Millisecond,
		Rate:       40,
		Burst:      4,
		Shards:     4,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDriverMeasuresDetectionLatency(t *testing.T) {
	st := replay(t, 17)
	if st.Events == 0 {
		t.Fatal("no events applied")
	}
	if st.Sweeps != 20 {
		t.Errorf("Sweeps = %d, want 20 (10s / 500ms)", st.Sweeps)
	}
	if st.Detected == 0 {
		t.Fatal("no detections recorded")
	}
	if int(st.Detect.Count) != st.Detected {
		t.Errorf("Detect.Count = %d, Detected = %d; must agree", st.Detect.Count, st.Detected)
	}
	// A sweep is atomic at its virtual instant: no event waits longer
	// than one sweep interval, and latency is never negative.
	if st.Detect.Max > 500*time.Millisecond {
		t.Errorf("max detection latency %v exceeds the sweep interval", st.Detect.Max)
	}
	if st.Detect.Min < 0 {
		t.Errorf("negative detection latency %v", st.Detect.Min)
	}
	if st.Detect.P50 > st.Detect.P95 || st.Detect.P95 > st.Detect.P99 || st.Detect.P99 > st.Detect.Max {
		t.Errorf("percentiles not monotone: %+v", st.Detect)
	}
	// Every applied non-leave event ends detected, orphaned or pending.
	if got := st.Detected + st.Orphaned + st.Pending; got != st.Events-st.Leaves {
		t.Errorf("detected %d + orphaned %d + pending %d = %d, want events %d - leaves %d",
			st.Detected, st.Orphaned, st.Pending, got, st.Events, st.Leaves)
	}
	if st.VirtualDuration != 10*time.Second {
		t.Errorf("VirtualDuration = %v, want 10s", st.VirtualDuration)
	}
	if st.AchievedRate <= 0 || st.AchievedRate > st.OfferedRate+1 {
		t.Errorf("AchievedRate = %v with OfferedRate %v", st.AchievedRate, st.OfferedRate)
	}
	if st.ReplayWall <= 0 || st.RealEventsPerSec <= 0 {
		t.Errorf("real-clock stats empty: wall=%v rate=%v", st.ReplayWall, st.RealEventsPerSec)
	}
	// Incremental sweeps must actually reuse the cache: most hosts are
	// untouched between consecutive sweeps at this rate.
	if st.CacheReplays == 0 {
		t.Error("no cache replays across incremental sweeps")
	}
}

// TestDriverDeterministic is the acceptance criterion: a fixed seed on
// the virtual clock reproduces the event stream and the full detection
// latency distribution exactly. Only the real-clock fields may differ.
func TestDriverDeterministic(t *testing.T) {
	a := replay(t, 23)
	b := replay(t, 23)
	a.ReplayWall, b.ReplayWall = 0, 0
	a.RealEventsPerSec, b.RealEventsPerSec = 0, 0
	if a != b {
		t.Fatalf("replays with identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestDriverFeedsMetrics(t *testing.T) {
	f, err := Synthesize(smallTopology(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	st, err := Run(f, NewChurn(f, DefaultMix(), 5), DriverOptions{
		Duration:   2 * time.Second,
		SweepEvery: 200 * time.Millisecond,
		Rate:       20,
		Shards:     2,
		Workers:    1,
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweeps == 0 {
		t.Fatal("no sweeps ran")
	}
	checkLoadMetrics(t, m, st)
}

// checkLoadMetrics asserts that the registry and LoadStats agree: every
// load.* metric the replay keeps equals its LoadStats field, no other
// load.* metric exists, and the stream.flushes and fleet.sweeps counters
// exceed Flushes and Sweeps by exactly the priming flush or sweep that
// LoadStats leaves out.
func checkLoadMetrics(t *testing.T, m *telemetry.Metrics, st LoadStats) {
	t.Helper()
	counters := map[string]int{
		"load.events":          st.Events,
		"load.events.skipped":  st.Skipped,
		"load.events.drift":    st.Drift,
		"load.events.orphaned": st.Orphaned,
	}
	for name, want := range counters {
		if got := m.Counter(name); got != int64(want) {
			t.Errorf("%s counter = %d, want %d", name, got, want)
		}
	}
	gauges := map[string]float64{
		"load.events.pending": float64(st.Pending),
		"load.hosts":          float64(st.Hosts),
		"load.rate.virtual":   st.AchievedRate,
		"load.rate.real":      st.RealEventsPerSec,
	}
	for name, want := range gauges {
		if got, ok := m.Gauge(name); !ok || got != want {
			t.Errorf("%s gauge = %v (set %v), want %v", name, got, ok, want)
		}
	}
	if got := m.Percentiles("load.detect"); got.Count != st.Detect.Count {
		t.Errorf("load.detect samples = %d, want %d", got.Count, st.Detect.Count)
	}
	var names []string
	for _, row := range m.Table("").Rows {
		if strings.HasPrefix(row[0], "load.") {
			names = append(names, row[0])
		}
	}
	want := []string{"load.detect"}
	for name := range counters {
		want = append(want, name)
	}
	for name := range gauges {
		want = append(want, name)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("load.* metrics = %v, want %v", names, want)
	}
	primingFlush, primingSweep := 0, 1
	if st.Mode == "push" {
		primingFlush, primingSweep = 1, 0
	}
	if got := m.Counter("stream.flushes"); got != int64(st.Flushes+primingFlush) {
		t.Errorf("stream.flushes = %d, want Flushes %d + %d priming", got, st.Flushes, primingFlush)
	}
	if got := m.Counter("fleet.sweeps"); got != int64(st.Sweeps+primingSweep) {
		t.Errorf("fleet.sweeps = %d, want Sweeps %d + %d priming", got, st.Sweeps, primingSweep)
	}
}

func TestDriverRejectsBadOptions(t *testing.T) {
	f, err := Synthesize(smallTopology(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChurn(f, DefaultMix(), 1)
	if _, err := Run(f, c, DriverOptions{Duration: 0, Rate: 10}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(f, c, DriverOptions{Duration: time.Second, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	// A tick longer than the replay would admit nothing and report
	// nothing: an error, not a vacuous pass.
	if _, err := Run(f, c, DriverOptions{Duration: 100 * time.Millisecond, SweepEvery: 500 * time.Millisecond, Rate: 10}); err == nil {
		t.Error("sweep interval longer than the duration accepted")
	}
	if _, err := Run(f, c, DriverOptions{Duration: time.Second, SweepEvery: 500 * time.Millisecond, Push: true, Window: 2 * time.Second, Rate: 10}); err == nil {
		t.Error("push window longer than the duration accepted")
	}
}

func replayPush(t *testing.T, seed int64) LoadStats {
	t.Helper()
	f, err := Synthesize(smallTopology(), 30, seed)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChurn(f, DefaultMix(), seed+1)
	st, err := Run(f, c, DriverOptions{
		Duration: 10 * time.Second,
		Window:   50 * time.Millisecond,
		Push:     true,
		Rate:     40,
		Burst:    4,
		Shards:   4,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDriverPushBreaksSweepFloor is push evaluation's acceptance
// property in miniature: with the streamer flushing every 50ms, no
// verdict waits anywhere near the sweep replay's 500ms interval, and no
// sweep runs behind the flushes.
func TestDriverPushBreaksSweepFloor(t *testing.T) {
	st := replayPush(t, 17)
	if st.Mode != "push" || st.Window != 50*time.Millisecond {
		t.Fatalf("Mode/Window = %q/%v, want push/50ms", st.Mode, st.Window)
	}
	if st.Events == 0 || st.Detected == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	// Every event resolves at the next flush: latency is bounded by the
	// coalescing window, not the sweep interval.
	if st.Detect.Max > 50*time.Millisecond {
		t.Errorf("max detection latency %v exceeds the flush window", st.Detect.Max)
	}
	if st.Detect.Min < 0 {
		t.Errorf("negative detection latency %v", st.Detect.Min)
	}
	if st.Flushes == 0 || st.DeltaHosts == 0 || st.ChecksEvaluated == 0 {
		t.Errorf("push counters empty: flushes=%d deltaHosts=%d evaluated=%d",
			st.Flushes, st.DeltaHosts, st.ChecksEvaluated)
	}
	// Efficiency: the dependency index localises most events to far
	// fewer checks than the 8-requirement catalogue.
	if st.ChecksPerEvent <= 0 || st.ChecksPerEvent >= 8 {
		t.Errorf("ChecksPerEvent = %v, want in (0, 8)", st.ChecksPerEvent)
	}
	// A tick is one evaluation: the flush. No sweep runs in push mode.
	if st.Sweeps != 0 || st.HostsReaudited != 0 || st.CacheReplays != 0 {
		t.Errorf("push replay swept: Sweeps/HostsReaudited/CacheReplays = %d/%d/%d, want 0/0/0",
			st.Sweeps, st.HostsReaudited, st.CacheReplays)
	}
	// Same accounting identity as sweep mode.
	if got := st.Detected + st.Orphaned + st.Pending; got != st.Events-st.Leaves {
		t.Errorf("detected %d + orphaned %d + pending %d = %d, want events %d - leaves %d",
			st.Detected, st.Orphaned, st.Pending, got, st.Events, st.Leaves)
	}
}

// TestReplayForgetsDepartedHosts: a departed host leaves nothing in the
// coordinator, in sweep mode as in push mode. loadgen never reuses a
// name, so a cache entry left behind by a leave would never be read
// again, and the cache would grow with every departure.
func TestReplayForgetsDepartedHosts(t *testing.T) {
	for _, push := range []bool{false, true} {
		f, err := Synthesize(smallTopology(), 20, 5)
		if err != nil {
			t.Fatal(err)
		}
		mix := ChurnMix{HostJoin: 1, HostLeave: 1, PackageUpgrade: 2}
		r, err := NewReplay(f, NewChurn(f, mix, 6), DriverOptions{
			Push: push,
			Rate: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		for now := 50 * time.Millisecond; now <= 2*time.Second; now += 50 * time.Millisecond {
			r.Tick(now)
		}
		if st := r.Stats(); st.Leaves == 0 {
			t.Fatalf("push=%v: replay applied no leaves", push)
		}
		if cached, members := r.coord.CachedHosts(), f.Size(); cached > members {
			t.Errorf("push=%v: coordinator caches %d hosts for a fleet of %d", push, cached, members)
		}
	}
}

// TestDriverPushDeterministic pins the determinism satellite end to end:
// seeded churn through subscription wake-ups, dirty-key coalescing and
// subset evaluation reproduces every counter and the full latency
// distribution exactly.
func TestDriverPushDeterministic(t *testing.T) {
	a := replayPush(t, 23)
	b := replayPush(t, 23)
	a.ReplayWall, b.ReplayWall = 0, 0
	a.RealEventsPerSec, b.RealEventsPerSec = 0, 0
	if a != b {
		t.Fatalf("push replays with identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

// TestDriverPushMatchesSweepStream verifies head-to-head comparability:
// both modes admit the identical event stream from the same seed, so
// the bench's latency comparison measures evaluation strategy only.
func TestDriverPushMatchesSweepStream(t *testing.T) {
	sw := replay(t, 31)
	pu := replayPush(t, 31)
	if sw.Events != pu.Events || sw.Drift != pu.Drift ||
		sw.Joins != pu.Joins || sw.Leaves != pu.Leaves ||
		sw.Outages != pu.Outages || sw.Restores != pu.Restores {
		t.Errorf("event streams diverged:\nsweep %+v\npush  %+v", sw, pu)
	}
	if pu.Detect.P99 >= sw.Detect.P99 {
		t.Errorf("push p99 %v not below sweep p99 %v", pu.Detect.P99, sw.Detect.P99)
	}
}

func TestDriverPushFeedsMetrics(t *testing.T) {
	f, err := Synthesize(smallTopology(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	st, err := Run(f, NewChurn(f, DefaultMix(), 5), DriverOptions{
		Duration: 2 * time.Second,
		Push:     true,
		Rate:     20,
		Shards:   2,
		Workers:  1,
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Window != 20*time.Millisecond {
		t.Errorf("Window = %v, want Duration/100 = 20ms default", st.Window)
	}
	if st.Flushes == 0 {
		t.Fatal("no flushes ran")
	}
	checkLoadMetrics(t, m, st)
}

// TestReplayTicksOnCallersClock drives a Replay the way vdo-serve does:
// at irregular instants, with one late tick, and Stats read mid-session
// as well as at the end.
func TestReplayTicksOnCallersClock(t *testing.T) {
	f, err := Synthesize(smallTopology(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	r, err := NewReplay(f, NewChurn(f, DefaultMix(), 5), DriverOptions{
		Push:    true,
		Window:  20 * time.Millisecond,
		Rate:    50,
		Shards:  2,
		Workers: 1,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	alarms := 0
	for _, ms := range []time.Duration{20, 45, 110, 430, 450} {
		fr := r.Tick(ms * time.Millisecond)
		alarms += len(fr.Alarms)
		// Mid-session Stats calls count nothing twice.
		checkLoadMetrics(t, m, r.Stats())
	}
	st := r.Stats()
	if st.VirtualDuration != 450*time.Millisecond {
		t.Errorf("VirtualDuration = %v, want 450ms", st.VirtualDuration)
	}
	if st.Events == 0 {
		t.Fatal("no events admitted")
	}
	if st.Alarms != alarms {
		t.Errorf("Alarms = %d, want the %d the ticks' flushes opened", st.Alarms, alarms)
	}
	checkLoadMetrics(t, m, st)
}
