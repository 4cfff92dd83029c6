package fleet

import (
	"sort"
	"sync"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/telemetry"
)

// Streamer is the push-based incremental evaluator: it subscribes to
// per-host EventLog tails, coalesces the state keys dirtied since the
// last flush, maps them through each host's DepIndex to the affected
// checks, and hands the dirty hosts with those subsets to the
// coordinator's dispatch — the same scheduler, evaluator, engine, dedup
// memo and incremental cache a sweep runs through, with the index on
// instead of off. Flushed reports fold into a View: the live
// fleet-compliance view that raises one alarm per violation episode.
//
// The coalescing window is the caller's flush cadence: event
// notifications only mark hosts dirty (cheap, lock-one-map cheap), and
// the actual evaluation happens when the owner calls Flush — the
// loadgen driver's Replay ticks it on the virtual clock in vdo-load and
// on the real clock in vdo-serve, tests whenever they like. Watch,
// Unwatch and the read accessors are safe for concurrent use; Flush is
// an evaluation on the coordinator and follows its no-overlap contract.
type Streamer struct {
	coord *Coordinator
	opts  StreamOptions

	mu    sync.Mutex
	hosts map[string]*streamHost
	dirty map[string]bool
	stats StreamStats
	view  *View
}

// StreamOptions configures a Streamer's evaluations. Every check runs
// once, without a timeout: the zero engine.Policy of Options.Checks.
type StreamOptions struct {
	// Mode selects audit-only or audit-and-remediate deltas.
	Mode core.RunMode
	// Shards is how many dirty hosts evaluate concurrently per flush.
	Shards int
	// Workers is the engine pool size inside each host's delta run.
	Workers int
	// Dedup shares one single-flight check memo across each flush's
	// hosts, as batch sweeps do (audit-only flushes; see Options.Dedup).
	Dedup bool
	// Trace, when non-nil, records each flush as a span tree: a "flush"
	// root with one "delta" child per dirty host (tagged host, full,
	// checks) and the catalogue runner's spans below.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, accumulates stream.* counters/histograms
	// alongside the engine and fleet metrics of the underlying runs.
	Metrics *telemetry.Metrics
}

func (o StreamOptions) normalized() StreamOptions {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// evalOptions is the Options shape the delta evaluations run under.
func (o StreamOptions) evalOptions() Options {
	return Options{
		Mode:    o.Mode,
		Shards:  o.Shards,
		Workers: o.Workers,
		Dedup:   o.Dedup,
		Trace:   o.Trace,
		Metrics: o.Metrics,
	}
}

// streamHost is the streamer's per-host state: the audit target, its
// event source, its dependency index and the tail cursor.
type streamHost struct {
	target Target
	log    *host.EventLog
	index  *DepIndex
	cancel func()
	// cursor is the next EventLog sequence to consume (host.EventLog.Tail).
	cursor int
	// primed flips after the first evaluation; until then every flush
	// runs the full catalogue, because there is no verdict baseline to
	// delta against.
	primed bool
}

// StreamStats is the streamer's cumulative telemetry.
type StreamStats struct {
	// Flushes counts Flush calls that found at least one dirty host.
	Flushes int
	// Events is the total number of tailed events consumed.
	Events int
	// DeltaHosts counts per-flush dirty-host evaluations (a host dirty
	// in N flushes counts N times).
	DeltaHosts int
	// FullAudits counts evaluations that ran the whole catalogue
	// (priming, unkeyed events, connectivity flips, and keyed deltas
	// with no cached report to merge into).
	FullAudits int
	// ChecksEvaluated sums the checks each delta asked the engine to
	// resolve; ChecksExecuted subtracts dedup replays. ChecksEvaluated /
	// Events is the O(changed keys) efficiency headline: it must sit far
	// below the catalogue size when deltas dominate.
	ChecksEvaluated int
	ChecksExecuted  int
	// Alarms and Repairs count violation episodes opened and closed.
	Alarms  int
	Repairs int
	// IndexedChecks / UnindexedChecks are gauges, not counters: how many
	// catalogue entries across the currently watched hosts the dependency
	// index can localize (core.KeyReader declared) versus must fan out to
	// conservatively on every event. Snapshotted by Stats() from the
	// per-host indexes.
	IndexedChecks   int
	UnindexedChecks int
}

// ReadLocalization is IndexedChecks / (IndexedChecks + UnindexedChecks)
// in [0,1]; 0 when nothing is watched. See FleetStats.ReadLocalization.
func (s StreamStats) ReadLocalization() float64 {
	total := s.IndexedChecks + s.UnindexedChecks
	if total == 0 {
		return 0
	}
	return float64(s.IndexedChecks) / float64(total)
}

// Alarm is one violation-episode opening observed by a flush: a finding
// on a host moved from PASS (or unknown) to the recorded non-PASS
// status.
type Alarm struct {
	At      time.Duration
	Host    string
	Finding string
	Status  core.CheckStatus
}

// DeltaResult is one host's evaluation within a flush.
type DeltaResult struct {
	Host string
	// Full marks a whole-catalogue run (priming, unkeyed event, net
	// flip, or a keyed delta with no cached report to merge into);
	// otherwise only the Checks affected checks ran.
	Full bool
	// Events is how many tailed events this delta coalesced.
	Events int
	// Checks is how many catalogue entries were evaluated.
	Checks int
	// Result is the underlying audit outcome; its Report is always the
	// full merged per-host report regardless of Full.
	Result HostResult
}

// FlushResult is the outcome of one coalescing window.
type FlushResult struct {
	// At is the caller's timestamp for the flush (virtual or real).
	At    time.Duration
	Hosts []DeltaResult
	// Events / ChecksEvaluated / ChecksExecuted are this flush's slice
	// of the cumulative StreamStats counters.
	Events          int
	ChecksEvaluated int
	ChecksExecuted  int
	// Alarms holds the violation episodes this flush opened; Repairs
	// counts the ones it closed.
	Alarms  []Alarm
	Repairs int
	// Wall is the real elapsed time of the flush.
	Wall time.Duration
}

// NewStreamer returns a streamer evaluating through the coordinator's
// incremental cache (so fallback sweeps on the same coordinator see the
// streamer's merged reports and vice versa).
func NewStreamer(coord *Coordinator, opts StreamOptions) *Streamer {
	return &Streamer{
		coord: coord,
		opts:  opts.normalized(),
		hosts: map[string]*streamHost{},
		dirty: map[string]bool{},
		view:  NewView(),
	}
}

// Watch registers a target and its event source. The host starts dirty
// and unprimed: its first flush runs the full catalogue to establish the
// verdict baseline, and every subsequent flush deltas from the event
// tail. Re-watching a name replaces the previous registration and
// drops the host's verdicts and open episodes from the live view.
func (s *Streamer) Watch(t Target, log *host.EventLog) {
	sh := &streamHost{
		target: t,
		log:    log,
		index:  BuildDepIndex(t.Catalog),
	}
	if log != nil {
		name := t.Name
		sh.cancel = log.Subscribe(func(host.Event) { s.markDirty(name) })
		// Events already in the log are covered by the priming full run;
		// the tail picks up strictly newer ones. An event landing between
		// Subscribe and Len is both covered by the priming run and
		// re-delivered by the tail — harmless, never lost.
		sh.cursor = log.Len()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.hosts[t.Name]; old != nil {
		s.detachLocked(old)
	}
	s.hosts[t.Name] = sh
	s.dirty[t.Name] = true
}

// Unwatch removes a target: its subscription is cancelled, its verdicts
// leave the live view, and its cache entry is dropped (the host is gone;
// a returning host of the same name must re-audit, not replay).
func (s *Streamer) Unwatch(name string) {
	s.mu.Lock()
	sh := s.hosts[name]
	if sh != nil {
		s.detachLocked(sh)
		delete(s.hosts, name)
		delete(s.dirty, name)
	}
	s.mu.Unlock()
	if sh != nil {
		s.coord.Invalidate(name)
	}
}

// detachLocked cancels a host's subscription and drops it from the
// live view; callers hold s.mu.
func (s *Streamer) detachLocked(sh *streamHost) {
	if sh.cancel != nil {
		sh.cancel()
	}
	s.view.Drop(sh.target.Name)
}

func (s *Streamer) markDirty(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.hosts[name]; ok {
		s.dirty[name] = true
	}
}

// Hosts reports how many targets are watched.
func (s *Streamer) Hosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hosts)
}

// DirtyHosts reports how many watched hosts have unconsumed events.
func (s *Streamer) DirtyHosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dirty)
}

// Counts returns the live fleet-wide verdict counts. Hosts not yet
// primed contribute nothing.
func (s *Streamer) Counts() (pass, fail, incomplete int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.Counts()
}

// Compliance is the live fraction of PASS verdicts across the fleet; an
// empty (or unprimed) view is fully compliant, matching
// FleetReport.Compliance.
func (s *Streamer) Compliance() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.Compliance()
}

// Stats returns the cumulative streamer telemetry, with the
// read-localization gauges snapshotted from the currently watched hosts.
func (s *Streamer) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	for _, sh := range s.hosts {
		st.IndexedChecks += len(sh.index.Indexed())
		st.UnindexedChecks += len(sh.index.Unindexed())
	}
	return st
}

// deltaPlan is one dirty host's tail for a flush, read under no locks;
// the check subset it maps to travels in the matching dispatch job.
type deltaPlan struct {
	sh     *streamHost
	events []host.Event
	next   int
}

// Flush evaluates every host dirtied since the previous flush and folds
// the fresh verdicts into the live view. now is the caller's timestamp
// (virtual or real), recorded on the result and its alarms. Dirty hosts
// are planned and folded in name order, so a given event history always
// yields the same batches, the same verdict sequence and the same alarm
// order regardless of goroutine interleaving; only the evaluation in
// between is parallel.
func (s *Streamer) Flush(now time.Duration) FlushResult {
	t0 := time.Now()
	fr := FlushResult{At: now}

	// Snapshot and clear the dirty set. Events arriving after the
	// snapshot re-dirty their host and wait for the next flush; events
	// arriving between a host's Tail below and the fold are re-delivered
	// next flush too, because the cursor only advances to what was
	// tailed.
	s.mu.Lock()
	if len(s.dirty) == 0 {
		s.mu.Unlock()
		return fr
	}
	names := make([]string, 0, len(s.dirty))
	for name := range s.dirty {
		names = append(names, name)
	}
	sort.Strings(names)
	s.dirty = map[string]bool{}
	plans := make([]deltaPlan, 0, len(names))
	for _, name := range names {
		if sh := s.hosts[name]; sh != nil {
			plans = append(plans, deltaPlan{sh: sh})
		}
	}
	s.mu.Unlock()

	// Plan: tail each host's log and coalesce its dirty keys into the
	// affected-check subset, the job's only. Sequential and
	// allocation-light; the expensive part is the evaluation below.
	jobs := make([]job, len(plans))
	for i := range plans {
		p := &plans[i]
		sh := p.sh
		jobs[i].Target = sh.target
		if sh.log != nil {
			p.events, p.next = sh.log.Tail(sh.cursor)
		}
		// Until a host is primed there is no verdict baseline to delta
		// against: only stays nil and the whole catalogue runs.
		full := !sh.primed
		// keys may repeat and come in event order: Affected sorts and
		// dedups its output whatever the input order.
		var keys []string
		for _, ev := range p.events {
			// Unkeyed events (bulk provisioning, legacy appends) and
			// connectivity flips touch the whole host.
			if ev.Key.IsZero() || ev.Key.Kind == host.KeyNet {
				full = true
				break
			}
			keys = append(keys, ev.Key.String())
		}
		if !full {
			jobs[i].only = sh.index.Affected(keys)
			if jobs[i].only == nil {
				// Distinguish "no affected checks" (a cache re-stamp) from
				// the nil that means "run everything".
				jobs[i].only = []string{}
			}
		}
	}

	out := s.coord.dispatch(jobs, s.opts.evalOptions(), false)
	out.root.End()

	// Fold: advance cursors, refresh the live view, open/close violation
	// episodes — in plan (name) order, so alarms and counts are
	// deterministic. Full and Checks report what the evaluator ran, which
	// is the whole catalogue whenever a subset had no cached base.
	s.mu.Lock()
	for i, hr := range out.results {
		p := plans[i]
		sh := p.sh
		if s.hosts[sh.target.Name] != sh {
			// Unwatched or re-watched mid-flush: drop the result;
			// detachLocked already took the host out of the view.
			continue
		}
		sh.cursor = p.next
		sh.primed = true

		ran := jobs[i].only
		checks := evaluated(hr, ran)
		executed := 0
		if !hr.FromCache {
			executed = hr.Stats.Requirements - hr.Stats.DedupHits
		}
		fr.Hosts = append(fr.Hosts, DeltaResult{
			Host: sh.target.Name, Full: ran == nil, Events: len(p.events),
			Checks: checks, Result: hr,
		})
		fr.Events += len(p.events)
		fr.ChecksEvaluated += checks
		fr.ChecksExecuted += executed
		var repairs int
		fr.Alarms, repairs = s.view.Fold(now, sh.target.Name, hr.Report, fr.Alarms)
		fr.Repairs += repairs
	}
	fr.Wall = time.Since(t0)

	s.stats.Flushes++
	s.stats.Events += fr.Events
	s.stats.DeltaHosts += len(fr.Hosts)
	for _, d := range fr.Hosts {
		if d.Full {
			s.stats.FullAudits++
		}
	}
	s.stats.ChecksEvaluated += fr.ChecksEvaluated
	s.stats.ChecksExecuted += fr.ChecksExecuted
	s.stats.Alarms += len(fr.Alarms)
	s.stats.Repairs += fr.Repairs
	compliance := s.view.Compliance()
	s.mu.Unlock()

	recordFlushMetrics(s.opts.Metrics, fr, compliance)
	return fr
}

// recordFlushMetrics folds one flush into the shared metrics registry.
func recordFlushMetrics(m *telemetry.Metrics, fr FlushResult, compliance float64) {
	if m == nil {
		return
	}
	m.Add("stream.flushes", 1)
	m.Add("stream.events", int64(fr.Events))
	m.Add("stream.dirty_hosts", int64(len(fr.Hosts)))
	m.Add("stream.checks_evaluated", int64(fr.ChecksEvaluated))
	m.Add("stream.checks_executed", int64(fr.ChecksExecuted))
	m.Add("stream.alarms", int64(len(fr.Alarms)))
	m.Add("stream.repairs", int64(fr.Repairs))
	m.Observe("stream.flush_wall", fr.Wall)
	m.SetGauge("stream.compliance", compliance)
}
