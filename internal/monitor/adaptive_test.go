package monitor

import (
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
	"veridevops/internal/trace"
)

func TestAdaptiveBacksOffWhenHealthy(t *testing.T) {
	mk := func(adaptive bool) *Scheduler {
		h := host.NewUbuntu1804()
		s := NewScheduler(10)
		if adaptive {
			s.Adaptive = true
		}
		s.Watch("V-219157", stig.NewV219157(h))
		s.Run(5000, nil)
		return s
	}
	fixed := mk(false)
	adaptive := mk(true)
	if adaptive.Polls >= fixed.Polls {
		t.Errorf("adaptive should poll less on a healthy host: %d vs %d",
			adaptive.Polls, fixed.Polls)
	}
	// Fixed polling: one poll per period across the horizon.
	if fixed.Polls < 490 || fixed.Polls > 510 {
		t.Errorf("fixed polls = %d, want ~500", fixed.Polls)
	}
	// Backoff caps at 8x: at steady state ~one poll per 80 ticks.
	if adaptive.Polls > 120 {
		t.Errorf("adaptive polls = %d, want well under fixed", adaptive.Polls)
	}
}

func TestAdaptiveStillDetects(t *testing.T) {
	h := host.NewUbuntu1804()
	s := NewScheduler(10)
	s.Adaptive = true
	s.Watch("V-219157", stig.NewV219157(h))
	inject := trace.Time(1000)
	s.Run(2000, []TimedAction{{At: inject, Do: func() { h.Install("nis", "1") }}})
	alarms := s.Alarms()
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1", len(alarms))
	}
	// Detection latency is bounded by the 8x max period.
	if lat := alarms[0].At - inject; lat < 0 || lat > 80 {
		t.Errorf("latency = %d, want within the 80-tick max period", lat)
	}
}

func TestAdaptiveSnapsBackAfterViolation(t *testing.T) {
	h := host.NewUbuntu1804()
	s := NewScheduler(10)
	s.AutoEnforce = true
	s.Adaptive = true
	s.WatchEnforceable("V-219157", stig.NewV219157(h))

	// The backed-off schedule polls at 350+80k, so the first violation is
	// seen at 2030. The second lands at 2035: with snap-back the next poll
	// is at 2040; without it the period would stay at the 80-tick cap and
	// the next poll would be at 2110.
	s.Run(4000, []TimedAction{
		{At: 2000, Do: func() { h.Install("nis", "1") }},
		{At: 2035, Do: func() { h.Install("nis", "1") }},
	})
	alarms := s.Alarms()
	if len(alarms) != 2 {
		t.Fatalf("alarms = %d, want 2", len(alarms))
	}
	if alarms[0].At != 2030 {
		t.Fatalf("first alarm at %d, want 2030 on the capped schedule", alarms[0].At)
	}
	// After the first alarm the period snapped back to 10, so the second
	// detection is tight.
	if lat := alarms[1].At - 2035; lat > 40 {
		t.Errorf("post-reset latency = %d, want tight (<=40)", lat)
	}
}

// pollClock is a Checkable that always passes and records the instant of
// every poll.
type pollClock struct {
	s     *Scheduler
	polls []trace.Time
}

func (p *pollClock) Check() core.CheckStatus {
	p.polls = append(p.polls, p.s.Clock.Now())
	return core.CheckPass
}

// TestAdaptiveDefaults pins the backoff schedule on a healthy host: the
// period doubles after every 4 clean polls and stops at 8x the base.
func TestAdaptiveDefaults(t *testing.T) {
	s := NewScheduler(10)
	s.Adaptive = true
	pc := &pollClock{s: s}
	s.Watch("clean", pc)
	s.Run(600, nil)
	want := []trace.Time{
		0, 10, 20, 30, // period 10 until the 4th clean poll
		50, 70, 90, 110, // 20
		150, 190, 230, 270, // 40
		350, 430, 510, 590, // capped at 80
	}
	if len(pc.polls) != len(want) {
		t.Fatalf("polls at %v, want %v", pc.polls, want)
	}
	for i := range want {
		if pc.polls[i] != want[i] {
			t.Fatalf("polls at %v, want %v", pc.polls, want)
		}
	}
}
