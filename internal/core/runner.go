package core

import (
	"context"
	"fmt"
	"time"

	"veridevops/internal/engine"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
)

// This file is the single execution path of the catalogue: Run,
// RunParallel, the monitor scheduler and the CLIs all funnel through
// RunEngine, which builds on internal/engine for panic isolation, retry
// with backoff, per-attempt timeouts and run telemetry.

// RunOptions configures an engine-backed catalogue run.
type RunOptions struct {
	// Mode selects audit-only or audit-and-remediate.
	Mode RunMode
	// Workers bounds the worker pool; values <= 1 run sequentially (same
	// results, same order — parallelism never changes the report).
	Workers int
	// Checks is the per-check resilience policy. The zero value means one
	// attempt, no timeout: exactly the historical Run semantics plus panic
	// recovery. With MaxAttempts > 1, INCOMPLETE verdicts, panics and
	// timeouts are retried with exponential backoff; PASS and FAIL are
	// final and never retried. Enforcement is never retried (mutating a
	// host twice is not idempotent in general) but is panic-isolated: a
	// panicking Enforce yields FAILURE.
	Checks engine.Policy
	// Memo, when non-nil, dedups check executions across catalogue runs
	// sharing the memo: requirements that fingerprint their read state
	// (CheckFingerprint) execute once per distinct fingerprint and replay
	// the verdict elsewhere. Consulted only in CheckOnly mode —
	// enforcement mutates per-host state and is never deduped. The fleet
	// coordinator shares one memo across all hosts of one sweep.
	Memo *CheckMemo
	// Span, when non-nil, parents the run's trace: one "check" child per
	// requirement (tagged finding, status, and dedup_hit when replayed)
	// with the engine's per-attempt spans below, and an "enforce" span
	// around remediation. The fleet coordinator passes each host's span
	// here; nil — telemetry disabled — adds zero allocations.
	Span *telemetry.Span
	// Metrics, when non-nil, accumulates engine counters (engine.checks,
	// engine.attempts, engine.retries, engine.panics, engine.timeouts,
	// engine.errors, engine.dedup_hits/misses) and the engine.check_wall
	// duration histogram across runs sharing the registry.
	Metrics *telemetry.Metrics
	// Only, when non-nil, restricts the run to the catalogue entries whose
	// finding ID is in the set — the subset path of push-based incremental
	// evaluation, where a host-state delta maps through fleet.DepIndex to
	// the handful of affected checks. Unknown IDs are ignored and a
	// repeated ID runs once; the report keeps finding-ID order; an empty
	// non-nil slice runs nothing. nil (the default) runs the whole
	// catalogue.
	Only []string
}

// ReqStats is the per-requirement telemetry of an engine run.
type ReqStats struct {
	FindingID string
	// Status is the requirement's final check status.
	Status CheckStatus
	// Attempts counts check executions (initial check plus the re-check
	// after enforcement, plus any retries of either).
	Attempts int
	// Retries is how many of those attempts were retries.
	Retries int
	// Panics counts recovered panics (check and enforce).
	Panics int
	// Timeouts counts attempts abandoned at the policy deadline.
	Timeouts int
	// Enforced reports whether remediation was attempted.
	Enforced bool
	// DedupHit marks a verdict replayed from the shared check memo; its
	// attempt counters are zero because nothing executed here.
	DedupHit bool
	// DedupMiss marks a memoisable requirement this run executed as the
	// fingerprint's first arrival.
	DedupMiss bool
	// Duration is wall time spent on this requirement, backoffs included.
	Duration time.Duration
}

// RunStats aggregates the telemetry of one engine run.
type RunStats struct {
	Requirements int
	Workers      int
	// Wall is the elapsed time of the run; Busy the summed per-requirement
	// durations (Busy/Wall measures effective parallelism).
	Wall time.Duration
	Busy time.Duration
	// Attempts / Retries / Panics / Timeouts are summed over requirements.
	Attempts int
	Retries  int
	Panics   int
	Timeouts int
	// Errors counts requirements whose final status is ERROR.
	Errors int
	// DedupHits counts requirements whose verdict was replayed from the
	// shared check memo; DedupMisses counts memoisable requirements this
	// run executed as the fingerprint's first arrival. Both stay 0 when
	// RunOptions.Memo is nil.
	DedupHits   int
	DedupMisses int
	// PerRequirement holds the per-requirement rows in finding-ID order.
	PerRequirement []ReqStats
}

// Utilization is Busy / (Workers * Wall) in [0,1].
func (s RunStats) Utilization() float64 {
	return engine.PoolStats{Workers: s.Workers, Wall: s.Wall, Busy: s.Busy}.Utilization()
}

// Summary renders the aggregate telemetry as one line.
func (s RunStats) Summary() string {
	return fmt.Sprintf(
		"engine: %d requirements, %d workers, %d attempts (%d retries, %d panics recovered, %d timeouts), %d errors, wall %s ms, utilization %s",
		s.Requirements, s.Workers, s.Attempts, s.Retries, s.Panics, s.Timeouts,
		s.Errors, report.Millis(s.Wall), report.Percent(s.Utilization()))
}

// Table renders the per-requirement telemetry for cmd/vdo-bench and the
// CLIs' -telemetry flag.
func (s RunStats) Table(title string) *report.Table {
	t := report.New(title, "finding", "status", "attempts", "retries", "panics", "timeouts", "enforced", "ms")
	for _, r := range s.PerRequirement {
		t.AddRow(r.FindingID, r.Status, r.Attempts, r.Retries, r.Panics, r.Timeouts,
			r.Enforced, report.Millis(r.Duration))
	}
	t.Note = s.Summary()
	return t
}

// runRequirement wraps one catalogue entry's resolution in its "check"
// span: opened before the memo consultation (so a dedup replay's memo
// wait is visible in the trace), tagged with the finding, the final
// status and — for replays — dedup_hit, and ended when the verdict is
// in. The span is threaded into the engine policy, so live executions
// hang their per-attempt spans below it.
func runRequirement(req CheckableEnforceableRequirement, mode RunMode, pol engine.Policy, memo *CheckMemo, parent *telemetry.Span) (Result, ReqStats) {
	sp := parent.Child("check").Tag("finding", req.FindingID())
	pol.Span = sp
	res, st := resolveRequirement(req, mode, pol, memo)
	sp.Tag("status", st.Status.String())
	// CheckError collapses several failure modes; surface which one as an
	// outcome tag so the trace store can filter check spans the same way
	// it filters attempt spans (outcome=timeout / outcome=panic).
	if st.Status == CheckError {
		switch {
		case st.Timeouts > 0:
			sp.Tag("outcome", "timeout")
		case st.Panics > 0:
			sp.Tag("outcome", "panic")
		default:
			sp.Tag("outcome", "error")
		}
	}
	if st.DedupHit {
		sp.TagBool("dedup_hit", true)
	}
	sp.End()
	return res, st
}

// resolveRequirement resolves one catalogue entry: through the shared
// check memo when the entry is dedupable and a memo is wired (CheckOnly
// runs only), through a live engine execution otherwise. The memo is
// single-flight, so the first arrival for a fingerprint executes while
// identical co-tenants wait and replay its verdict.
func resolveRequirement(req CheckableEnforceableRequirement, mode RunMode, pol engine.Policy, memo *CheckMemo) (Result, ReqStats) {
	if memo == nil || mode != CheckOnly {
		return runRequirementLive(req, mode, pol)
	}
	key, ok := CheckFingerprint(req)
	if !ok {
		return runRequirementLive(req, mode, pol)
	}
	if res, hit := memo.acquire(key); hit {
		return res, ReqStats{FindingID: res.FindingID, Status: res.After, DedupHit: true}
	}
	res, st := runRequirementLive(req, mode, pol)
	memo.fulfill(key, res)
	st.DedupMiss = true
	return res, st
}

// runRequirementLive executes one catalogue entry under the policy. Every
// check goes through engine.AttemptCtx: panics and timeouts become ERROR,
// INCOMPLETE is retried while the policy allows, and checks implementing
// ContextChecker can observe an abandoned attempt's cancelled context at
// their probe boundaries.
func runRequirementLive(req CheckableEnforceableRequirement, mode RunMode, pol engine.Policy) (Result, ReqStats) {
	start := time.Now()
	var st ReqStats
	checkOp := func(ctx context.Context) CheckStatus {
		if cc, ok := req.(ContextChecker); ok {
			return cc.CheckCtx(ctx)
		}
		return req.Check()
	}
	check := func() CheckStatus {
		v, cst := engine.AttemptCtx(checkOp,
			func(s CheckStatus) bool { return s == CheckIncomplete },
			func(error) CheckStatus { return CheckError },
			pol)
		st.Attempts += cst.Attempts
		st.Retries += cst.Retries
		st.Panics += cst.Panics
		st.Timeouts += cst.Timeouts
		return v
	}
	res := Result{FindingID: req.FindingID(), Severity: req.Severity()}
	res.Before = check()
	res.After = res.Before
	if mode == CheckAndEnforce && res.Before != CheckPass {
		res.Enforced = true
		st.Enforced = true
		esp := pol.Span.Child("enforce")
		enf, est := engine.Attempt(req.Enforce, nil,
			func(error) EnforcementStatus { return EnforceFailure },
			engine.Policy{AttemptTimeout: pol.AttemptTimeout, Sleep: pol.Sleep, Span: esp})
		esp.Tag("result", enf.String()).End()
		st.Attempts += est.Attempts
		st.Panics += est.Panics
		st.Timeouts += est.Timeouts
		res.Enforcement = enf
		res.After = check()
	}
	st.FindingID = res.FindingID
	st.Status = res.After
	st.Duration = time.Since(start)
	return res, st
}

// RunEngine executes every catalogue entry in finding-ID order on the
// fault-tolerant engine and returns the report plus run telemetry. It is
// the single execution path behind Run and RunParallel. With
// RunOptions.Only set, only the named entries run (still in finding-ID
// order), which is how delta evaluation re-checks just the requirements
// affected by a host-state change.
func (c *Catalog) RunEngine(opts RunOptions) (Report, RunStats) {
	var reqs []CheckableEnforceableRequirement
	if opts.Only == nil {
		reqs = c.All()
	} else {
		reqs = c.subset(opts.Only)
	}
	var rep Report
	stats := RunStats{Requirements: len(reqs)}
	if len(reqs) > 0 {
		rep.Results = make([]Result, len(reqs))
		stats.PerRequirement = make([]ReqStats, len(reqs))
	}
	// Each worker writes row i of the report and of the telemetry in
	// place. The closure captures only what it reads: capturing opts, rep
	// or stats would move them to the heap on every run.
	results, rows := rep.Results, stats.PerRequirement
	mode, pol, memo, span := opts.Mode, opts.Checks, opts.Memo, opts.Span
	ps := engine.ForEach(len(reqs), opts.Workers, func(i int) {
		results[i], rows[i] = runRequirement(reqs[i], mode, pol, memo, span)
	})
	stats.Workers, stats.Wall, stats.Busy = ps.Workers, ps.Wall, ps.Busy
	for i := range rows {
		r := &rows[i]
		stats.Attempts += r.Attempts
		stats.Retries += r.Retries
		stats.Panics += r.Panics
		stats.Timeouts += r.Timeouts
		if results[i].After == CheckError {
			stats.Errors++
		}
		if r.DedupHit {
			stats.DedupHits++
		} else if r.DedupMiss {
			stats.DedupMisses++
		}
	}
	recordRunMetrics(opts.Metrics, stats)
	return rep, stats
}

// recordRunMetrics folds one run's telemetry into the shared metrics
// registry: the engine.* counters and the engine.check_wall histogram
// (executed checks only — dedup replays have no wall of their own).
func recordRunMetrics(m *telemetry.Metrics, stats RunStats) {
	if m == nil {
		return
	}
	m.Add("engine.checks", int64(stats.Requirements))
	m.Add("engine.attempts", int64(stats.Attempts))
	m.Add("engine.retries", int64(stats.Retries))
	m.Add("engine.panics", int64(stats.Panics))
	m.Add("engine.timeouts", int64(stats.Timeouts))
	m.Add("engine.errors", int64(stats.Errors))
	m.Add("engine.dedup_hits", int64(stats.DedupHits))
	m.Add("engine.dedup_misses", int64(stats.DedupMisses))
	for _, r := range stats.PerRequirement {
		if !r.DedupHit {
			m.Observe("engine.check_wall", r.Duration)
		}
	}
}
