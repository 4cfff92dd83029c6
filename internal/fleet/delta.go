package fleet

import (
	"slices"
	"strings"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/telemetry"
)

// The per-host evaluator behind every sweep and every flush (see the
// package comment): the one place a host's checks run, sharing the
// engine, the dedup memo, the observed-cost table and the version-keyed
// incremental cache whichever path last touched a host.

// evaluate audits one target and returns its result together with the
// subset it actually ran. only selects the work:
//
//   - nil: the whole catalogue. With opts.Incremental set, a cached
//     report observed at the host's current version is replayed instead.
//   - empty (non-nil): no check is affected. The cached report is
//     re-stamped at the current version and replayed; nothing executes.
//     Without the re-stamp an incremental sweep sharing the coordinator
//     (sweep mode after a flush, or a benchmark rig that runs both)
//     would re-audit a host whose verdicts provably cannot have moved.
//   - non-empty: only those checks run, and their verdicts merge into the
//     cached report.
//
// A subset, empty or not, without a cached base has nothing sound to
// replay or merge into, so the whole catalogue runs and ran comes back
// nil: the result is always the full per-host report.
//
// Executed runs of versioned targets are cached at the version read
// before the run (see cacheEntry). span, when non-nil, parents the
// catalogue runner's check spans; memo is the dispatch's shared dedup
// memo, if any.
func (c *Coordinator) evaluate(t Target, only []string, shard int, opts Options, memo *core.CheckMemo, span *telemetry.Span) (hr HostResult, ran []string) {
	hr = HostResult{Target: t.Name, Shard: shard}
	var version uint64
	if t.Version != nil {
		version = t.Version.Version()
	}
	var base cacheEntry
	switch {
	case only == nil:
		if t.Version != nil && opts.Incremental {
			if e, ok := c.lookup(t.Name); ok && e.version == version {
				return replayed(hr, e), nil
			}
		}
	case len(only) == 0:
		if e, ok := c.restamp(t, version); ok {
			return replayed(hr, e), only
		}
		only = nil
	default:
		var ok bool
		if base, ok = c.lookup(t.Name); !ok {
			only = nil
		}
	}
	if t.Catalog == nil {
		hr.Stats = &core.RunStats{}
		return hr, only
	}
	t0 := time.Now()
	rep, st := t.Catalog.RunEngine(core.RunOptions{
		Mode:    opts.Mode,
		Workers: opts.Workers,
		Checks:  opts.Checks,
		Memo:    memo,
		Span:    span,
		Metrics: opts.Metrics,
		Only:    only,
	})
	wall := time.Since(t0)
	c.recordCost(t.Name, wall)
	opts.Metrics.Observe("fleet.host_wall", wall)
	if only != nil {
		rep = mergeReport(base.report, rep)
	}
	e := newCacheEntry(version, rep)
	hr.Report, hr.Stats, hr.Degraded = rep, &st, e.degraded
	if t.Version != nil {
		// Prime the cache on every versioned run — full sweeps included —
		// so the first incremental sweep after a full one already hits.
		c.store(t.Name, e)
	}
	return hr, only
}

// replayed fills a result from a cache entry. Stats stay nil because
// nothing executed, so Degraded comes from the cached verdicts: a host
// that was unreachable when the cache was primed is still reported
// degraded by the evaluations that replay it.
func replayed(hr HostResult, e cacheEntry) HostResult {
	hr.FromCache = true
	hr.Report = e.report
	hr.Degraded = e.degraded
	return hr
}

// evaluated is how many catalogue entries an evaluation resolved: the
// whole report for a full run or replay, the subset otherwise.
func evaluated(hr HostResult, ran []string) int {
	if ran == nil {
		return len(hr.Report.Results)
	}
	return len(ran)
}

// restamp moves a versioned target's cached entry to version, reporting
// the entry and whether one existed.
func (c *Coordinator) restamp(t Target, version uint64) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cache[t.Name]
	if ok && t.Version != nil {
		e.version = version
		c.cache[t.Name] = e
	}
	return e, ok
}

// mergeReport overlays the verdicts of a subset run onto a full base
// report: results present in partial replace the base entry of the same
// finding, new findings are inserted, and the merged report keeps
// finding-ID order. Neither input is mutated.
//
// Both inputs are in finding-ID order — a base is always a merged or
// full report, and core.Catalog.RunEngine returns an Only run in ID order
// too — so two-pointer walks merge them and the output slice is the only
// allocation. It is sized exactly, because it becomes the host's cached
// report. A partial out of order gets a sorted copy first, so there is
// no second merge path.
func mergeReport(base, partial core.Report) core.Report {
	b, p := base.Results, partial.Results
	if !slices.IsSortedFunc(p, byFindingID) {
		p = slices.Clone(p)
		slices.SortFunc(p, byFindingID)
	}
	shared := 0
	for i, j := 0, 0; i < len(b) && j < len(p); {
		c := byFindingID(b[i], p[j])
		if c <= 0 {
			i++
		}
		if c >= 0 {
			j++
		}
		if c == 0 {
			shared++
		}
	}
	out := make([]core.Result, 0, len(b)+len(p)-shared)
	for len(b) > 0 && len(p) > 0 {
		c := byFindingID(b[0], p[0])
		if c < 0 {
			out = append(out, b[0])
		} else {
			out = append(out, p[0])
		}
		if c <= 0 {
			b = b[1:]
		}
		if c >= 0 {
			p = p[1:]
		}
	}
	return core.Report{Results: append(append(out, b...), p...)}
}

// byFindingID orders results by finding ID, the order of every report.
func byFindingID(a, b core.Result) int { return strings.Compare(a.FindingID, b.FindingID) }
