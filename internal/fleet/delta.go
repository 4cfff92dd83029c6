package fleet

import (
	"sort"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/telemetry"
)

// Delta evaluation: the subset path of push-based incremental
// evaluation. Where Sweep re-audits whole hosts whose version moved,
// ApplyDelta re-runs only the checks a host-state change affects
// (per DepIndex) and merges the fresh verdicts into the host's cached
// report, so the cache — and everything reading it, fallback sweeps
// included — stays coherent between full audits.

// ApplyDelta audits the named subset of a target's catalogue (only) and
// merges the verdicts into the target's cached report, which it returns.
// only == nil runs the whole catalogue (the path for unkeyed events,
// connectivity flips and never-audited hosts); a subset call without a
// cached base report also falls back to a full run, because there is
// nothing sound to merge into. The merged report is cached at the
// host's pre-run state version, exactly like Sweep's auditOne, so a
// mutation racing the delta forces a re-audit rather than being lost.
func (c *Coordinator) ApplyDelta(t Target, only []string, opts Options) HostResult {
	opts = opts.normalized(1)
	var memo *core.CheckMemo
	if opts.Dedup && opts.Mode == core.CheckOnly {
		memo = core.NewCheckMemo()
	}
	var span *telemetry.Span
	if opts.Trace != nil {
		span = opts.Trace.Root("delta").Tag("host", t.Name)
		defer span.End()
	}
	return c.applyDelta(t, only, 0, opts, memo, span)
}

// applyDelta is ApplyDelta with the caller-owned memo and span threaded
// through — the form the Streamer uses so one flush shares a single
// dedup memo and span tree across all its dirty hosts.
func (c *Coordinator) applyDelta(t Target, only []string, shard int, opts Options, memo *core.CheckMemo, span *telemetry.Span) HostResult {
	if only == nil {
		return c.auditOne(t, shard, opts, memo, span)
	}
	base, ok := c.lookup(t.Name)
	if !ok {
		return c.auditOne(t, shard, opts, memo, span)
	}
	hr := HostResult{Target: t.Name, Shard: shard}
	if t.Catalog == nil {
		return hr
	}
	var version uint64
	if t.Version != nil {
		version = t.Version()
	}
	t0 := time.Now()
	partial, st := t.Catalog.RunEngine(core.RunOptions{
		Mode:    opts.Mode,
		Workers: opts.Workers,
		Checks:  opts.Checks,
		Memo:    memo,
		Span:    span,
		Metrics: opts.Metrics,
		Only:    only,
	})
	c.recordCost(t.Name, time.Since(t0))
	e := newCacheEntry(version, mergeReport(base.report, partial))
	hr.Report, hr.Stats, hr.Degraded = e.report, st, e.degraded
	if t.Version != nil {
		c.store(t.Name, e)
	}
	return hr
}

// Refresh re-stamps a target's cached report at the host's current state
// version, reporting whether a cached report existed. It is the
// zero-check delta path: when every event in a host's delta maps to no
// checks at all (a config key nothing reads), the verdicts cannot have
// changed, but the version-keyed cache entry has gone stale — without
// the re-stamp the next fallback sweep would needlessly re-audit the
// whole host.
func (c *Coordinator) Refresh(t Target) bool {
	if t.Version == nil {
		return false
	}
	version := t.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cache[t.Name]
	if !ok {
		return false
	}
	e.version = version
	c.cache[t.Name] = e
	return true
}

// mergeReport overlays the verdicts of a subset run onto a full base
// report: results present in partial replace the base entry of the same
// finding, new findings are inserted, and the merged report keeps
// finding-ID order. Neither input is mutated.
func mergeReport(base, partial core.Report) core.Report {
	if len(partial.Results) == 0 {
		out := core.Report{Results: make([]core.Result, len(base.Results))}
		copy(out.Results, base.Results)
		return out
	}
	byID := make(map[string]core.Result, len(partial.Results))
	for _, r := range partial.Results {
		byID[r.FindingID] = r
	}
	out := core.Report{Results: make([]core.Result, 0, len(base.Results)+len(partial.Results))}
	for _, r := range base.Results {
		if fresh, ok := byID[r.FindingID]; ok {
			out.Results = append(out.Results, fresh)
			delete(byID, r.FindingID)
			continue
		}
		out.Results = append(out.Results, r)
	}
	if len(byID) > 0 {
		for _, r := range byID {
			out.Results = append(out.Results, r)
		}
		sort.Slice(out.Results, func(i, j int) bool {
			return out.Results[i].FindingID < out.Results[j].FindingID
		})
	}
	return out
}
