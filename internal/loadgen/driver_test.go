package loadgen

import (
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
	if got := m.Counter("load.events"); got != int64(st.Events) {
		t.Errorf("load.events counter = %d, want %d", got, st.Events)
	}
	if got := m.Percentiles("load.detect"); got.Count != st.Detect.Count {
		t.Errorf("load.detect samples = %d, want %d", got.Count, st.Detect.Count)
	}
	if got := m.Counter("load.sweeps"); got != int64(st.Sweeps) {
		t.Errorf("load.sweeps counter = %d, want %d", got, st.Sweeps)
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
		Duration:   10 * time.Second,
		SweepEvery: 500 * time.Millisecond,
		Window:     50 * time.Millisecond,
		Push:       true,
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

// TestDriverPushBreaksSweepFloor is the tentpole's acceptance property
// in miniature: with the streamer flushing every 50ms, no verdict waits
// anywhere near the 500ms sweep interval.
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
	// The fallback sweep still fires on schedule, but the streamer's
	// deltas keep the incremental cache stamped, so it never re-audits.
	if st.Sweeps != 20 {
		t.Errorf("fallback Sweeps = %d, want 20 (10s / 500ms)", st.Sweeps)
	}
	if st.HostsReaudited != 0 {
		t.Errorf("fallback sweeps re-audited %d hosts; want pure cache replays", st.HostsReaudited)
	}
	if st.CacheReplays == 0 {
		t.Error("fallback sweeps recorded no cache replays")
	}
	// Same accounting identity as sweep mode.
	if got := st.Detected + st.Orphaned + st.Pending; got != st.Events-st.Leaves {
		t.Errorf("detected %d + orphaned %d + pending %d = %d, want events %d - leaves %d",
			st.Detected, st.Orphaned, st.Pending, got, st.Events, st.Leaves)
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
		Duration:   2 * time.Second,
		SweepEvery: 200 * time.Millisecond,
		Push:       true,
		Rate:       20,
		Shards:     2,
		Workers:    1,
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Window != 20*time.Millisecond {
		t.Errorf("Window = %v, want SweepEvery/10 = 20ms default", st.Window)
	}
	if got := m.Counter("load.flushes"); got != int64(st.Flushes) {
		t.Errorf("load.flushes counter = %d, want %d", got, st.Flushes)
	}
	if got := m.Counter("load.checks.evaluated"); got != int64(st.ChecksEvaluated) {
		t.Errorf("load.checks.evaluated counter = %d, want %d", got, st.ChecksEvaluated)
	}
	if got := m.Percentiles("load.detect"); got.Count != st.Detect.Count {
		t.Errorf("load.detect samples = %d, want %d", got.Count, st.Detect.Count)
	}
}

// TestReplayTicksOnCallersClock drives a Replay the way vdo-serve does:
// at irregular instants, with one late tick past several fallback
// boundaries, and Stats read mid-session as well as at the end.
func TestReplayTicksOnCallersClock(t *testing.T) {
	f, err := Synthesize(smallTopology(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplay(f, NewChurn(f, DefaultMix(), 5), DriverOptions{Rate: 10}); err == nil {
		t.Error("replay with no sweep interval and no duration accepted")
	}
	m := telemetry.NewMetrics()
	r, err := NewReplay(f, NewChurn(f, DefaultMix(), 5), DriverOptions{
		SweepEvery: 100 * time.Millisecond,
		Push:       true,
		Window:     20 * time.Millisecond,
		Rate:       50,
		Shards:     2,
		Workers:    1,
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	alarms := 0
	for _, ms := range []time.Duration{20, 45, 110, 430, 450} {
		now := ms * time.Millisecond
		tr := r.Tick(now)
		alarms += len(tr.Flush.Alarms)
		// Sweeps fall due at 100ms and then 200ms; the late tick at 430ms
		// runs one sweep, not the three it skipped.
		if swept := tr.Sweep != nil; swept != (ms == 110 || ms == 430) {
			t.Errorf("tick at %v: swept = %v", now, swept)
		}
		if ms == 110 {
			r.Stats()
		}
	}
	st := r.Stats()
	if st.Sweeps != 2 || st.VirtualDuration != 450*time.Millisecond {
		t.Errorf("Sweeps/VirtualDuration = %d/%v, want 2/450ms", st.Sweeps, st.VirtualDuration)
	}
	if st.Events == 0 {
		t.Fatal("no events admitted")
	}
	if st.Alarms != alarms {
		t.Errorf("Alarms = %d, want the %d the ticks' flushes opened", st.Alarms, alarms)
	}
	// A mid-session Stats does not count anything twice.
	if got := m.Counter("load.events"); got != int64(st.Events) {
		t.Errorf("load.events counter = %d, want %d", got, st.Events)
	}
	if got := m.Counter("load.flushes"); got != int64(st.Flushes) {
		t.Errorf("load.flushes counter = %d, want %d", got, st.Flushes)
	}
}
