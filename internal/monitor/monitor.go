// Package monitor implements Reactive Protection at Operations (WP3 of the
// VeriDevOps framework): a scheduler that polls RQCODE requirements against
// the live environment, raises alarms on violations, optionally auto-
// remediates through the requirements' Enforce operation, and accounts
// detection/repair latencies — the measurements behind the E3 and E6
// experiments.
package monitor

import (
	"fmt"
	"sort"
	"strings"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/telemetry"
	"veridevops/internal/temporal"
	"veridevops/internal/trace"
)

// Alarm is one detected violation.
type Alarm struct {
	At          trace.Time
	Requirement string
	// Enforced reports whether auto-remediation ran.
	Enforced    bool
	Enforcement core.EnforcementStatus
	// RepairedAt is when a subsequent check passed again (only meaningful
	// when Enforced and the repair succeeded); -1 otherwise.
	RepairedAt trace.Time
}

func (a Alarm) String() string {
	s := fmt.Sprintf("t=%d %s VIOLATION", a.At, a.Requirement)
	if a.Enforced {
		s += fmt.Sprintf(" enforced=%s repaired_at=%d", a.Enforcement, a.RepairedAt)
	}
	return s
}

// entry is one monitored requirement.
type entry struct {
	name string
	c    core.Checkable
	e    core.Enforceable // nil when not auto-remediable
	// inViolation dedupes alarms: one alarm per violation episode.
	inViolation bool
}

// TimedAction is an environment mutation scheduled at a virtual instant,
// used to inject violations during simulated runs.
type TimedAction struct {
	At trace.Time
	Do func()
}

// Adaptive polling backs off while the environment stays healthy: after
// adaptiveCleanStreak consecutive violation-free polls the period doubles,
// capped at adaptiveMaxFactor times the base period; any violation snaps
// it back to the base period. The E3c ablation quantifies the
// polls-saved / latency-paid trade.
const (
	adaptiveCleanStreak = 4
	adaptiveMaxFactor   = 8
)

// Scheduler polls registered requirements at a fixed period.
type Scheduler struct {
	// Clock supplies time; nil defaults to a simulated clock.
	Clock temporal.Clock
	// Period is the polling period in ticks (default 10).
	Period trace.Time
	// AutoEnforce turns on remediation of failing enforceable entries.
	AutoEnforce bool
	// Adaptive enables backoff polling: the period doubles after 4 clean
	// polls, up to 8x Period, and snaps back to Period on a violation.
	Adaptive bool
	// Checks is the per-check resilience policy: every poll check runs
	// through the fault-tolerant engine, so a panicking requirement
	// raises an alarm (fail-closed, status ERROR) instead of killing the
	// scheduler. The zero value means one attempt, no timeout. Retry
	// backoff sleeps in real time — configure Policy.Sleep when driving a
	// virtual clock.
	Checks engine.Policy
	// Trace, when non-nil, records each Run as a span tree: a
	// "monitor.run" root, one "poll" span per round (tagged t and
	// violated), "check" spans per entry (tagged requirement and status,
	// with the engine's per-attempt spans below), an "alarm" span per
	// raised alarm and an "enforce" span around remediation. Nil —
	// telemetry disabled — adds zero allocations to the poll loop.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, accumulates monitor.polls / monitor.checks /
	// monitor.alarms / monitor.repairs / monitor.enforcements counters
	// and the monitor.check_wall duration histogram.
	Metrics *telemetry.Metrics

	entries []*entry
	alarms  []Alarm
	// Polls counts polling rounds performed by Run.
	Polls int
	// CheckAttempts / CheckRetries / CheckPanics / EnforcePanics are the
	// engine telemetry accumulated over the run.
	CheckAttempts int
	CheckRetries  int
	CheckPanics   int
	EnforcePanics int
}

// NewScheduler returns a scheduler with the given polling period over a
// fresh simulated clock.
func NewScheduler(period trace.Time) *Scheduler {
	if period <= 0 {
		period = 10
	}
	return &Scheduler{Clock: temporal.NewSimClock(), Period: period}
}

// Watch registers a check-only requirement.
func (s *Scheduler) Watch(name string, c core.Checkable) {
	s.entries = append(s.entries, &entry{name: name, c: c})
}

// WatchEnforceable registers a requirement that AutoEnforce may remediate.
func (s *Scheduler) WatchEnforceable(name string, r core.CheckableEnforceableRequirement) {
	s.entries = append(s.entries, &entry{name: name, c: r, e: r})
}

// WatchCatalog registers every entry of an RQCODE catalogue.
func (s *Scheduler) WatchCatalog(c *core.Catalog) {
	for _, r := range c.All() {
		s.WatchEnforceable(r.FindingID(), r)
	}
}

// Alarms returns the alarms raised so far.
func (s *Scheduler) Alarms() []Alarm { return s.alarms }

// Run polls until the clock passes `until`, executing scheduled actions as
// their instants are reached. Actions due at or before a polling instant
// run before that poll.
func (s *Scheduler) Run(until trace.Time, actions []TimedAction) {
	acts := append([]TimedAction{}, actions...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	next := 0
	period := s.Period
	streak := 0
	maxPeriod := adaptiveMaxFactor * s.Period
	root := s.Trace.Root("monitor.run").TagInt("entries", len(s.entries))
	defer root.End()
	for s.Clock.Now() <= until {
		now := s.Clock.Now()
		for next < len(acts) && acts[next].At <= now {
			acts[next].Do()
			next++
		}
		violated := s.poll(now, root)
		if s.Adaptive {
			if violated {
				period = s.Period
				streak = 0
			} else {
				streak++
				if streak >= adaptiveCleanStreak && period < maxPeriod {
					period = min(2*period, maxPeriod)
					streak = 0
				}
			}
		}
		s.Clock.Sleep(period)
	}
	// Flush any trailing actions so callers can inspect final state.
	for next < len(acts) {
		acts[next].Do()
		next++
	}
}

// poll checks every entry once through the engine, handles violations,
// and reports whether any entry was in violation this round. A check that
// panics or times out yields ERROR and is treated as a violation
// (fail-closed): an unobservable requirement must alarm, not pass
// silently.
func (s *Scheduler) poll(now trace.Time, parent *telemetry.Span) bool {
	s.Polls++
	s.Metrics.Add("monitor.polls", 1)
	sp := parent.Child("poll").TagInt("t", int(now))
	violated := false
	for _, en := range s.entries {
		status := s.check(en, sp)
		switch {
		case status == core.CheckPass:
			en.inViolation = false
		case !en.inViolation:
			violated = true
			en.inViolation = true
			a := Alarm{At: now, Requirement: en.name, RepairedAt: -1}
			asp := sp.Child("alarm").Tag("requirement", en.name)
			s.Metrics.Add("monitor.alarms", 1)
			if s.AutoEnforce && en.e != nil {
				a.Enforced = true
				a.Enforcement = s.enforce(en, asp)
				if s.check(en, asp) == core.CheckPass {
					a.RepairedAt = now
					en.inViolation = false
					s.Metrics.Add("monitor.repairs", 1)
				}
			}
			asp.TagBool("repaired", a.RepairedAt >= 0).End()
			s.alarms = append(s.alarms, a)
		default:
			violated = true
		}
	}
	sp.TagBool("violated", violated).End()
	return violated
}

// check runs one entry's Check on the engine under s.Checks.
func (s *Scheduler) check(en *entry, parent *telemetry.Span) core.CheckStatus {
	sp := parent.Child("check").Tag("requirement", en.name)
	pol := s.Checks
	pol.Span = sp
	status, st := engine.Attempt(en.c.Check,
		func(v core.CheckStatus) bool { return v == core.CheckIncomplete },
		func(error) core.CheckStatus { return core.CheckError },
		pol)
	s.CheckAttempts += st.Attempts
	s.CheckRetries += st.Retries
	s.CheckPanics += st.Panics
	s.Metrics.Add("monitor.checks", 1)
	s.Metrics.Observe("monitor.check_wall", st.Duration)
	sp.Tag("status", status.String()).End()
	return status
}

// enforce runs one entry's Enforce panic-isolated (never retried: host
// mutations are not idempotent in general).
func (s *Scheduler) enforce(en *entry, parent *telemetry.Span) core.EnforcementStatus {
	sp := parent.Child("enforce").Tag("requirement", en.name)
	status, st := engine.Attempt(en.e.Enforce, nil,
		func(error) core.EnforcementStatus { return core.EnforceFailure },
		engine.Policy{Span: sp})
	s.EnforcePanics += st.Panics
	s.Metrics.Add("monitor.enforcements", 1)
	sp.Tag("result", status.String()).End()
	return status
}

// Stats summarises a run against known injection times.
type Stats struct {
	Alarms   int
	Repaired int
	// MeanDetectionLatency averages alarm time minus matching injection
	// time; -1 when nothing was matched.
	MeanDetectionLatency float64
}

// LatencyStats matches alarms against the injection times of violations
// (by requirement name) and computes detection statistics. Each injection
// is matched to its first subsequent alarm only: repeat violation
// episodes of the same requirement raise further alarms, and counting
// those against the one injection time would inflate the mean latency.
func LatencyStats(alarms []Alarm, injections map[string]trace.Time) Stats {
	multi := make(map[string][]trace.Time, len(injections))
	for req, at := range injections {
		multi[req] = []trace.Time{at}
	}
	return LatencyStatsMulti(alarms, multi)
}

// LatencyStatsMulti is LatencyStats for repeated violation episodes: each
// requirement maps to all of its injection times, and every injection is
// matched, in time order, to the first alarm at or after it that no
// earlier injection already claimed.
func LatencyStatsMulti(alarms []Alarm, injections map[string][]trace.Time) Stats {
	st := Stats{Alarms: len(alarms), MeanDetectionLatency: -1}
	alarmTimes := map[string][]trace.Time{}
	for _, a := range alarms {
		if a.RepairedAt >= 0 {
			st.Repaired++
		}
		alarmTimes[a.Requirement] = append(alarmTimes[a.Requirement], a.At)
	}
	total, matched := 0.0, 0
	for req, injs := range injections {
		times := alarmTimes[req]
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		injs = append([]trace.Time{}, injs...)
		sort.Slice(injs, func(i, j int) bool { return injs[i] < injs[j] })
		next := 0
		for _, inj := range injs {
			for next < len(times) && times[next] < inj {
				next++
			}
			if next == len(times) {
				break
			}
			total += float64(times[next] - inj)
			matched++
			next++
		}
	}
	if matched > 0 {
		st.MeanDetectionLatency = total / float64(matched)
	}
	return st
}

// Report renders the alarm list.
func Report(alarms []Alarm) string {
	var b strings.Builder
	for _, a := range alarms {
		fmt.Fprintln(&b, a)
	}
	fmt.Fprintf(&b, "%d alarms\n", len(alarms))
	return b.String()
}
