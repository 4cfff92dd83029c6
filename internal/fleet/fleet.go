// Package fleet is the operations-scale layer of the VeriDevOps
// reproduction: a coordinator that audits N hosts × M requirements across
// a two-level worker pool — shard goroutines pulling hosts from a dynamic
// scheduler, and engine.Map workers inside each host's catalogue run.
//
// There is one evaluation path. A batch Sweep and a Streamer flush are
// the same dispatch of per-host jobs through the same scheduler, per-host
// evaluator, engine, dedup memo and incremental cache; they differ only
// in which checks each job asks for. A sweep asks for every check of
// every target — the dependency index off. A flush asks, for each host
// its event log dirtied, for the checks the host's DepIndex maps the
// dirtied state keys to — the index on. Both fold into the same View of
// verdicts and violation episodes.
//
// Scheduling is work-stealing with affinity as the tiebreak. Each shard's
// queue is seeded with its affinity hosts (a stable FNV-1a hash of the
// host name) ordered most-expensive-first, using the per-host audit costs
// the coordinator observed on earlier sweeps (LPT); a shard whose queue
// drains steals the most expensive remaining host from the most loaded
// shard instead of idling. On a balanced fleet every host runs on its
// home shard — transport state and caches stay shard-local, exactly the
// old static placement — while a skewed fleet (one slow host, uneven
// buckets) converges towards equal shard walls instead of being paced by
// the unluckiest bucket. ScheduleStatic restores the pure-affinity
// behaviour for comparison.
//
// Cross-host check dedup (Options.Dedup) exploits fleet homogeneity: on
// audit-only sweeps, requirements that fingerprint their read state
// (core.CheckFingerprint) execute once per distinct (finding, state)
// pair per sweep and replay the verdict to every identical co-tenant,
// through one single-flight core.CheckMemo shared by all shards.
//
// A Coordinator carries an incremental-audit cache between sweeps, keyed
// on each host's monotonic state version (host.EventLog.Version): a
// re-sweep re-runs only hosts whose state advanced since the last pass and
// replays the cached report for the rest, so steady-state fleet sweeps are
// dominated by changed hosts only. Any cache miss falls back to a full
// run of that host. SaveCache/LoadCache persist the cache (and the
// observed cost table) across coordinator restarts; a corrupt or
// unrecognised cache file degrades to a cold start.
//
// Unreachable hosts (host.Linux.SetUnreachable) degrade instead of
// stalling the fleet: their probes panic, the fault-tolerant engine
// recovers each panic into an ERROR verdict, and the remaining shards
// proceed untouched. The unreachable panic marks itself expected, so the
// engine skips the stack capture and a down host costs about what an up
// host does.
package fleet

import (
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/telemetry"
)

// Target is one audited host: a name, its requirement catalogue, and an
// optional state-version probe for incremental sweeps.
type Target struct {
	// Name identifies the host; it is the cache key and the affinity key,
	// so it must be unique and stable across sweeps.
	Name string
	// Catalog is the host's requirement catalogue.
	Catalog *core.Catalog
	// Version reports the host's monotonic state version (typically the
	// host event log's Version method). nil disables incremental caching
	// for this target: every sweep re-audits it.
	Version func() uint64
}

// Options configures one fleet sweep.
type Options struct {
	// Mode selects audit-only or audit-and-remediate.
	Mode core.RunMode
	// Shards is the host-level parallelism: how many shard goroutines run
	// catalogues concurrently. Clamped to [1, number of targets].
	Shards int
	// Workers is the engine.Map pool size inside each host's catalogue
	// run; values <= 1 run a host's checks sequentially.
	Workers int
	// Checks is the per-check resilience policy (see core.RunOptions).
	Checks engine.Policy
	// Incremental reuses cached per-host reports for targets whose state
	// version is unchanged since the coordinator last audited them.
	Incremental bool
	// Scheduling selects host placement; the zero value is
	// ScheduleWorkStealing (see the package comment).
	Scheduling Scheduling
	// Dedup enables cross-host check dedup on audit-only sweeps: checks
	// with equal fingerprints execute once per sweep and replay
	// everywhere else. Ignored in CheckAndEnforce mode — enforcement
	// mutates per-host state and is never deduped.
	Dedup bool
	// Trace, when non-nil, records the sweep as a span tree: one "sweep"
	// root, a "shard" span per active shard goroutine, a "host" span per
	// target (tagged host, stolen, cached, degraded) and the catalogue
	// runner's "check"/"attempt"/"enforce" spans below. Nil — telemetry
	// disabled — adds zero allocations to the sweep.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, accumulates sweep counters (fleet.hosts,
	// fleet.cache.replays, fleet.steals, ...), gauges (fleet.utilization,
	// fleet.load_imbalance) and duration histograms (fleet.shard_wall,
	// fleet.queue_wait, fleet.sweep_wall, and fleet.host_wall, which
	// observes every executed host evaluation, a Streamer's subset runs
	// included), alongside the catalogue runner's engine.* metrics.
	Metrics *telemetry.Metrics
}

func (o Options) normalized(targets int) Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if targets > 0 && o.Shards > targets {
		o.Shards = targets
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// HostResult is the outcome of auditing one target.
type HostResult struct {
	Target string
	// Shard is the shard the target's work ran on: its affinity home
	// unless the host was stolen by an idle shard.
	Shard int
	// Stolen marks a host executed away from its affinity home by the
	// work-stealing scheduler.
	Stolen bool
	// FromCache marks a result replayed from the incremental cache; its
	// Stats are zero because nothing executed.
	FromCache bool
	// Degraded marks a host whose every check ended in ERROR — the
	// unreachable-host shape.
	Degraded bool
	Report   core.Report
	Stats    core.RunStats
}

// FleetReport aggregates the per-host reports of one sweep, ordered by
// target name.
type FleetReport struct {
	Hosts []HostResult
}

// Counts sums the final-status buckets over every host.
func (r FleetReport) Counts() (pass, fail, incomplete int) {
	for _, h := range r.Hosts {
		p, f, i := h.Report.Counts()
		pass, fail, incomplete = pass+p, fail+f, incomplete+i
	}
	return
}

// Compliance is the fraction of all requirements across the fleet whose
// final status is PASS; an empty fleet is fully compliant.
func (r FleetReport) Compliance() float64 {
	pass, fail, inc := r.Counts()
	total := pass + fail + inc
	if total == 0 {
		return 1
	}
	return float64(pass) / float64(total)
}

// Failing returns "host/finding" identifiers for every requirement whose
// final status is not PASS.
func (r FleetReport) Failing() []string {
	var out []string
	for _, h := range r.Hosts {
		for _, id := range h.Report.Failing() {
			out = append(out, h.Target+"/"+id)
		}
	}
	return out
}

// cacheEntry is one host's memoised audit outcome.
type cacheEntry struct {
	// version is the host state version observed immediately before the
	// cached run. Capturing the pre-run version is conservative: any
	// mutation during or after the run (drift, enforcement, an outage
	// flip) advances the live version past it and forces a re-audit.
	version uint64
	report  core.Report
	// degraded is degradedReport(report), judged once when the entry is
	// built so replays and re-stamps don't rescan the verdicts.
	degraded bool
}

// newCacheEntry builds the cache entry for a report observed at version.
func newCacheEntry(version uint64, rep core.Report) cacheEntry {
	return cacheEntry{version: version, report: rep, degraded: degradedReport(rep)}
}

// Coordinator shards fleet evaluations and carries the incremental cache
// between them. The zero value is not usable; call NewCoordinator. A
// Coordinator is safe for concurrent use by its own shard workers, but
// its evaluations must not overlap: no Sweep call may run concurrently
// with another Sweep or with the Flush of a Streamer over the same
// coordinator, and one Streamer's Flush calls must not overlap each
// other. The contract is enforced: an evaluation that enters while
// another is in flight panics.
type Coordinator struct {
	// busy is set while a dispatch is in flight (the no-overlap guard).
	busy atomic.Bool

	mu    sync.Mutex
	cache map[string]cacheEntry
	// costs is the observed per-host audit wall of the most recent
	// executed (non-cached) run, the LPT estimate the scheduler orders
	// queues by. Hosts never audited cost 0 (the scheduler substitutes
	// the fleet mean).
	costs map[string]time.Duration
}

// NewCoordinator returns a coordinator with an empty cache.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		cache: make(map[string]cacheEntry),
		costs: make(map[string]time.Duration),
	}
}

// Invalidate drops one host's cached report, forcing its next incremental
// audit to run fully.
func (c *Coordinator) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cache, name)
}

// InvalidateAll drops the whole cache.
func (c *Coordinator) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache = make(map[string]cacheEntry)
}

// CachedHosts reports how many hosts currently have a cached report.
func (c *Coordinator) CachedHosts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

func (c *Coordinator) lookup(name string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cache[name]
	return e, ok
}

func (c *Coordinator) store(name string, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[name] = e
}

// snapshotCosts returns the observed audit cost of each job's host,
// indexed like jobs; 0 for hosts never executed.
func (c *Coordinator) snapshotCosts(jobs []job) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		out[i] = c.costs[j.Name]
	}
	return out
}

// recordCost remembers an executed host's audit wall for future LPT
// ordering.
func (c *Coordinator) recordCost(name string, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wall > 0 {
		c.costs[name] = wall
	}
}

// Affinity returns the shard a host name is pinned to under the given
// shard count: a stable FNV-1a hash, so a host keeps its shard across
// sweeps and across fleets that contain different co-tenants.
func Affinity(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// Sweep is a one-shot fleet audit with no cache carried over; equivalent
// to NewCoordinator().Sweep(targets, opts).
func Sweep(targets []Target, opts Options) (FleetReport, FleetStats) {
	return NewCoordinator().Sweep(targets, opts)
}

// Sweep audits every target and returns the merged report and telemetry.
// It is a dispatch in which every target asks for its whole catalogue:
// shard goroutines pull hosts from the work-stealing scheduler (see the
// package comment; ScheduleStatic restores pure affinity buckets), and
// within a shard each host's catalogue runs on its own engine.Map pool
// of opts.Workers. The report lists hosts in name order regardless of
// shard interleaving; verdicts never depend on placement, only placement
// telemetry does.
func (c *Coordinator) Sweep(targets []Target, opts Options) (FleetReport, FleetStats) {
	opts = opts.normalized(len(targets))
	if len(targets) == 0 {
		return FleetReport{}, FleetStats{Shards: 0, Workers: opts.Workers}
	}

	jobs := sweepJobs(targets)
	d := c.dispatch(jobs, opts, true)

	rep := FleetReport{Hosts: d.results}
	st := aggregate(d.results, d.walls, d.pool, opts)
	countLocalization(&st, jobs)
	d.sched.apply(&st)
	d.root.TagInt("steals", st.Steals).TagInt("cached_hosts", st.CachedHosts).End()
	recordSweepMetrics(opts.Metrics, st)
	return rep, st
}

// job is one host's work in a dispatch: the target and the check subset
// the evaluator runs (nil: the whole catalogue; see evaluate). dispatch
// overwrites only with the subset the evaluator actually ran.
type job struct {
	Target
	only []string
}

// sweepJobs turns targets into the name-sorted, whole-catalogue jobs of
// a sweep.
func sweepJobs(targets []Target) []job {
	jobs := make([]job, len(targets))
	for i, t := range targets {
		jobs[i].Target = t
	}
	slices.SortFunc(jobs, func(a, b job) int { return strings.Compare(a.Name, b.Name) })
	return jobs
}

// dispatched is the outcome of one dispatch: per-job results indexed
// like the jobs, the shard goroutines' walls, pool telemetry, the
// scheduler for placement accounting, and the root span (nil when
// tracing is off), which the caller ends.
type dispatched struct {
	results []HostResult
	walls   []time.Duration
	pool    engine.PoolStats
	sched   *stealScheduler
	root    *telemetry.Span
}

// dispatch is the one evaluation path behind Sweep and Streamer.Flush:
// it runs every job (in name order) through evaluate on opts.Shards
// shard goroutines fed by the work-stealing scheduler, sharing one dedup
// memo across the call. With opts.Trace set it opens the root span once
// the scheduler is seeded and records one trace per host: a sweep
// (sweep=true) roots at "sweep" and nests "host" spans (tagged host,
// stolen, cached, degraded) below a "shard" span per active shard
// goroutine; a flush roots at "flush" and hangs "delta" spans (tagged
// host, full, checks) straight off it. Telemetry off allocates no span
// bookkeeping. It panics if another dispatch on c is in flight, which
// enforces the Coordinator's no-overlap contract.
func (c *Coordinator) dispatch(jobs []job, opts Options, sweep bool) dispatched {
	if !c.busy.CompareAndSwap(false, true) {
		panic("fleet: overlapping evaluations on one Coordinator: a Sweep or Streamer.Flush entered while another was in flight")
	}
	defer c.busy.Store(false)
	opts = opts.normalized(len(jobs))
	var memo *core.CheckMemo
	if opts.Dedup && opts.Mode == core.CheckOnly {
		memo = core.NewCheckMemo()
	}
	d := dispatched{results: make([]HostResult, len(jobs))}
	d.sched = newStealScheduler(len(jobs), opts.Shards,
		func(i int) int { return Affinity(jobs[i].Name, opts.Shards) },
		c.snapshotCosts(jobs), opts.Scheduling == ScheduleStatic)

	var root *telemetry.Span
	var shardSpans []*telemetry.Span
	switch {
	case opts.Trace == nil:
	case sweep:
		root = opts.Trace.Root("sweep").
			TagInt("hosts", len(jobs)).TagInt("shards", opts.Shards).TagInt("workers", opts.Workers)
		shardSpans = make([]*telemetry.Span, opts.Shards)
	default:
		root = opts.Trace.Root("flush").TagInt("hosts", len(jobs))
	}
	d.root = root
	run := func(shard, i int, stolen bool) {
		j := &jobs[i]
		var hs *telemetry.Span
		if root != nil {
			// ChildTrace: each host's evaluation roots its own trace (tree
			// link to its parent preserved), so the trace store can sample
			// and rank per host, not per whole sweep or flush.
			if sweep {
				hs = shardSpans[shard].ChildTrace("host").Tag("host", j.Name).TagBool("stolen", stolen)
			} else {
				hs = root.ChildTrace("delta").Tag("host", j.Name)
			}
		}
		hr, ran := c.evaluate(j.Target, j.only, shard, opts, memo, hs)
		hr.Stolen = stolen
		j.only = ran
		if hs != nil {
			if sweep {
				hs.TagBool("cached", hr.FromCache)
				if hr.Degraded {
					hs.TagBool("degraded", true)
				}
			} else {
				hs.TagBool("full", ran == nil).TagInt("checks", evaluated(hr, ran))
			}
			hs.End()
		}
		d.results[i] = hr
	}

	// One reusable task per shard: the scheduler's pick is parked in
	// picks[shard], which only that shard's goroutine reads and writes
	// (engine.Pull calls next and the task on it), so handing out a host
	// allocates nothing. results is written at distinct indices: the
	// scheduler hands each job out exactly once.
	type pick struct {
		i      int
		stolen bool
	}
	picks := make([]pick, opts.Shards)
	tasks := make([]func(), opts.Shards)
	for shard := range tasks {
		tasks[shard] = func() { run(shard, picks[shard].i, picks[shard].stolen) }
	}
	d.walls, d.pool = engine.Pull(opts.Shards, func(shard int) (func(), bool) {
		i, stolen, ok := d.sched.next(shard)
		if !ok {
			if shardSpans != nil {
				shardSpans[shard].End()
			}
			return nil, false
		}
		if shardSpans != nil && shardSpans[shard] == nil {
			shardSpans[shard] = root.Child("shard").TagInt("shard", shard)
		}
		picks[shard] = pick{i, stolen}
		return tasks[shard], true
	})
	return d
}

// recordSweepMetrics folds one sweep's roll-up into the shared metrics
// registry. Histograms only observe shards that did work, so idle
// affinity buckets don't drag the distributions to zero.
func recordSweepMetrics(m *telemetry.Metrics, st FleetStats) {
	if m == nil {
		return
	}
	m.Add("fleet.sweeps", 1)
	m.Add("fleet.hosts", int64(st.Hosts))
	m.Add("fleet.cache.replays", int64(st.CachedHosts))
	m.Add("fleet.hosts.degraded", int64(st.DegradedHosts))
	m.Add("fleet.steals", int64(st.Steals))
	m.SetGauge("fleet.utilization", st.Utilization())
	m.SetGauge("fleet.load_imbalance", st.LoadImbalance)
	m.Observe("fleet.sweep_wall", st.Wall)
	for _, sh := range st.PerShard {
		if sh.Hosts == 0 {
			continue
		}
		m.Observe("fleet.shard_wall", sh.Wall)
		m.Observe("fleet.queue_wait", sh.QueueWait)
	}
}
