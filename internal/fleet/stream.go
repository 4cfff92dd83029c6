package fleet

import (
	"slices"
	"strings"
	"sync"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/telemetry"
)

// Streamer is the push-based incremental evaluator: it subscribes to
// per-host EventLogs, coalesces the state keys their events dirtied
// since the last flush, maps them through each host's DepIndex to the
// affected checks, and hands the dirty hosts with those subsets to the
// coordinator's dispatch — the same scheduler, evaluator, engine, dedup
// memo and incremental cache a sweep runs through, with the index on
// instead of off. Flushed reports fold into a View: the live
// fleet-compliance view that raises one alarm per violation episode.
//
// No periodic sweep runs behind the flushes: a check that reads a slot
// it does not declare keeps a stale verdict when that slot changes, so
// VerifyReads and the keyreads analyzer guard the declarations.
//
// The coalescing window is the caller's flush cadence: an event
// notification only records the event on its host and marks the host
// dirty (under one lock), and the actual evaluation happens when the
// owner calls Flush — the loadgen driver's Replay ticks it on the
// virtual clock in vdo-load and on the real clock in vdo-serve, tests
// whenever they like. Watch,
// Unwatch and the read accessors are safe for concurrent use; Flush is
// an evaluation on the coordinator and follows its no-overlap contract.
//
// A flush allocates per dirty host, not per watched one: the dirty list
// and each host's record of delivered keys are double-buffered,
// alongside the coordinator's own scratch. Its result is not scratch:
// every FlushResult's Hosts and Alarms are freshly allocated and owned
// by the caller, so results of consecutive flushes never alias.
type Streamer struct {
	coord *Coordinator
	opts  StreamOptions

	mu    sync.Mutex
	hosts map[string]*streamHost
	// dirty lists the watched hosts marked since the last flush, each
	// once (streamHost.dirty). flushing is the list the last flush took;
	// the next flush, which takes dirty, starts the new dirty list in it.
	dirty    []*streamHost
	flushing []*streamHost
	view     *View
	// indexes interns the watched hosts' dependency indexes by
	// declaration signature (appendDeclSignature): hosts whose
	// catalogues make the same declarations share one index. An entry
	// leaves when its last host is unwatched.
	indexes map[string]*sharedIndex
	// sig is Watch's signature buffer, guarded by mu. Looking a
	// signature up in indexes allocates nothing, so only a new index
	// pays for its key.
	sig []byte
}

// sharedIndex is one interned DepIndex, its signature and the number of
// watched hosts holding it. Only refs changes after creation, under the
// Streamer's lock; the embedded index is read without it.
type sharedIndex struct {
	*DepIndex
	sig  string
	refs int
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
// (shared) dependency index, its subscription and what the subscription
// delivered.
type streamHost struct {
	target Target
	index  *sharedIndex
	cancel func()
	// got is what the subscription delivered since the last flush took
	// it, guarded by the Streamer's lock. taken is the record that flush
	// took, read by plan under the coordinator's guard; the next take
	// starts got in its key buffer.
	got, taken delivery
	// dirty marks the host as listed in Streamer.dirty; guarded by the
	// Streamer's lock.
	dirty bool
}

// delivery is what a host's subscription delivered between two flushes:
// the number of events and their state keys, in arrival order. An
// unkeyed event or a connectivity flip touches the whole host; it sets
// whole, and after that no keys are kept.
type delivery struct {
	events int
	whole  bool
	keys   []host.StateKey
}

// record adds one delivered event.
func (d *delivery) record(ev host.Event) {
	d.events++
	switch {
	case d.whole:
	case ev.Key.IsZero() || ev.Key.Kind == host.KeyNet:
		d.whole = true
	default:
		d.keys = append(d.keys, ev.Key)
	}
}

// take hands the host's delivered record to a flush and starts the next
// one in the key buffer the previous flush finished with; callers hold
// the Streamer's lock.
func (sh *streamHost) take() {
	sh.got, sh.taken = delivery{keys: sh.taken.keys[:0]}, sh.got
}

// StreamStats is the streamer's read-localization gauges: how many
// catalogue entries across the currently watched hosts the dependency
// index can localize (core.KeyReader declared) versus must fan out to
// conservatively on every event, counted per host from
// Catalog.KeyDeclarations as a sweep's FleetStats counts them. What
// flushes did is not tallied here: each FlushResult reports its own
// flush, and a caller that wants totals sums them.
type StreamStats struct {
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
	// Events is how many delivered events this delta coalesced.
	Events int
	// Checks is how many catalogue entries were evaluated.
	Checks int
	// Result is the underlying audit outcome; its Report is always the
	// full merged per-host report regardless of Full. A re-stamp (no
	// affected check) ran nothing, so its Result is FromCache with nil
	// Stats.
	Result HostResult
}

// FlushResult is the outcome of one coalescing window.
type FlushResult struct {
	// At is the caller's timestamp for the flush (virtual or real).
	At    time.Duration
	Hosts []DeltaResult
	// Events / ChecksEvaluated / ChecksExecuted sum the Hosts' Events,
	// their Checks, and the checks they executed (dedup and cache
	// replays subtracted).
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
// incremental cache, where each watched host's merged report is the
// baseline its next delta merges into.
func NewStreamer(coord *Coordinator, opts StreamOptions) *Streamer {
	return &Streamer{
		coord: coord,
		opts:  opts.normalized(),
		hosts: map[string]*streamHost{},
		view:  NewView(),

		indexes: map[string]*sharedIndex{},
	}
}

// Watch registers a target, subscribes to its event source and drops
// the host's coordinator cache entry, so its first flush runs the full
// catalogue: that run covers every event appended before the
// subscription and is the baseline later flushes delta into, even when
// a re-watch swapped the catalogue but not the version. Re-watching a
// name replaces the previous registration and drops the host's verdicts
// and open episodes from the live view.
//
// The host's dependency index is interned: Watch reads the catalogue's
// key declarations (finding IDs with their CheckKeys), and a host whose
// declarations equal those of a host already watched shares that host's
// index instead of building its own, so a fleet of one catalogue shape
// holds one index. The declarations are read once, at Watch.
func (s *Streamer) Watch(t Target, log *host.EventLog) {
	decls := declarations(t.Catalog)
	sh := &streamHost{target: t}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sig = appendDeclSignature(s.sig[:0], decls)
	ix := s.indexes[string(s.sig)]
	if ix == nil {
		ix = &sharedIndex{DepIndex: buildDepIndex(decls), sig: string(s.sig)}
		s.indexes[ix.sig] = ix
	}
	ix.refs++
	sh.index = ix
	if old := s.hosts[t.Name]; old != nil {
		s.detachLocked(old)
	}
	s.hosts[t.Name] = sh
	s.markDirtyLocked(sh)
	if log != nil {
		sh.cancel = log.Subscribe(func(ev host.Event) { s.deliver(sh, ev) })
	}
	s.coord.Invalidate(t.Name)
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
	}
	s.mu.Unlock()
	if sh != nil {
		s.coord.Invalidate(name)
	}
}

// detachLocked cancels a host's subscription, takes it off the dirty
// list, drops it from the live view and releases its reference to the
// interned index; callers hold s.mu. A flush already planned keeps
// using the index it read.
func (s *Streamer) detachLocked(sh *streamHost) {
	if sh.cancel != nil {
		sh.cancel()
	}
	if sh.dirty {
		s.dirty = slices.DeleteFunc(s.dirty, func(d *streamHost) bool { return d == sh })
		sh.dirty = false
	}
	s.view.Drop(sh.target.Name)
	if sh.index.refs--; sh.index.refs == 0 {
		delete(s.indexes, sh.index.sig)
	}
}

// deliver records one event on a watched host and lists the host for
// the next flush. A notification that races the host's Unwatch (or
// re-Watch) finds it detached and does nothing.
func (s *Streamer) deliver(sh *streamHost, ev host.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hosts[sh.target.Name] == sh {
		sh.got.record(ev)
		s.markDirtyLocked(sh)
	}
}

// markDirtyLocked lists sh on the dirty list unless it already is;
// callers hold s.mu.
func (s *Streamer) markDirtyLocked(sh *streamHost) {
	if !sh.dirty {
		sh.dirty = true
		s.dirty = append(s.dirty, sh)
	}
}

// Hosts reports how many targets are watched.
func (s *Streamer) Hosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hosts)
}

// Counts returns the live fleet-wide verdict counts. Hosts not yet
// flushed contribute nothing.
func (s *Streamer) Counts() (pass, fail, incomplete int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.Counts()
}

// Compliance is the live fraction of PASS verdicts across the fleet; an
// empty (or never flushed) view is fully compliant, matching
// FleetReport.Compliance.
func (s *Streamer) Compliance() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.Compliance()
}

// Stats snapshots the read-localization gauges of the currently watched
// hosts.
func (s *Streamer) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st StreamStats
	for _, sh := range s.hosts {
		if c := sh.target.Catalog; c != nil {
			declared, undeclared := c.KeyDeclarations()
			st.IndexedChecks += declared
			st.UnindexedChecks += undeclared
		}
	}
	return st
}

// Flush evaluates every host dirtied since the previous flush and folds
// the fresh verdicts into the live view. now is the caller's timestamp
// (virtual or real), recorded on the result and its alarms. Dirty hosts
// are planned and folded in name order, so a given event history always
// yields the same batches, the same verdict sequence and the same alarm
// order regardless of goroutine interleaving; only the evaluation in
// between is parallel. The result, Hosts and Alarms included, belongs
// to the caller.
func (s *Streamer) Flush(now time.Duration) FlushResult {
	t0 := time.Now()
	fr := FlushResult{At: now}
	c := s.coord
	c.enter()
	defer c.exit()

	// Take the dirty list and each listed host's delivered record, and
	// start new ones in the buffers the previous flush finished with.
	// Events arriving after the swap re-dirty their host and wait for
	// the next flush.
	s.mu.Lock()
	list := s.dirty
	if len(list) == 0 {
		s.mu.Unlock()
		return fr
	}
	s.dirty, s.flushing = s.flushing[:0], list
	for _, sh := range list {
		sh.dirty = false
		sh.take()
	}
	s.mu.Unlock()
	slices.SortFunc(list, func(a, b *streamHost) int { return strings.Compare(a.target.Name, b.target.Name) })
	defer clear(list)

	// Plan each host into its job and, through dispatch, its slot of the
	// result's Hosts: the results land in place, and the fold below
	// compacts away hosts that left mid-flush.
	hosts := make([]DeltaResult, len(list))
	jobs := c.jobBuffer(len(list))
	for i, sh := range list {
		jobs[i].Target = &sh.target
		hosts[i].Events, jobs[i].only = sh.plan()
	}
	out := c.dispatch(jobs, s.opts.evalOptions(), false, func(i int) *HostResult { return &hosts[i].Result })
	out.root.End()

	// Fold: refresh the live view, open/close violation episodes — in
	// plan (name) order, so alarms and counts are deterministic. Full and
	// Checks report what the evaluator ran, which is the whole catalogue
	// whenever a subset had no cached base.
	s.mu.Lock()
	kept := 0
	for i, sh := range list {
		if s.hosts[sh.target.Name] != sh {
			// Unwatched or re-watched mid-flush: drop the result;
			// detachLocked already took the host out of the view. The
			// evaluation may have stored its cache entry after Unwatch
			// invalidated it, so invalidate again.
			c.Invalidate(sh.target.Name)
			continue
		}
		d := &hosts[kept]
		if kept != i {
			*d = hosts[i]
		}
		kept++
		ran := jobs[i].only
		d.Host, d.Full, d.Checks = sh.target.Name, ran == nil, evaluated(d.Result, ran)
		if !d.Result.FromCache {
			fr.ChecksExecuted += d.Result.Stats.Requirements - d.Result.Stats.DedupHits
		}
		fr.Events += d.Events
		fr.ChecksEvaluated += d.Checks
		var repairs int
		fr.Alarms, repairs = s.view.Fold(now, sh.target.Name, d.Result.Report, fr.Alarms)
		fr.Repairs += repairs
	}
	clear(hosts[kept:])
	fr.Hosts = hosts[:kept]
	fr.Wall = time.Since(t0)
	compliance := s.view.Compliance()
	s.mu.Unlock()

	recordFlushMetrics(s.opts.Metrics, fr, compliance)
	return fr
}

// plan maps the record a flush took from one dirty host to how many
// events it coalesces and the check subset they affect: nil (the whole
// catalogue) for a whole-host record, else the DepIndex's affected
// checks, possibly none. A host with no cache entry yet runs the whole
// catalogue whatever the plan (see evaluate). Sequential and
// allocation-light; the expensive part is the evaluation.
func (sh *streamHost) plan() (events int, only []string) {
	d := &sh.taken
	if d.whole {
		return d.events, nil
	}
	// keys may repeat and come in event order: Affected sorts and dedups
	// its output whatever the input order.
	if only = sh.index.Affected(d.keys); only == nil {
		// Distinguish "no affected checks" (a cache re-stamp) from the
		// nil that means "run everything".
		only = []string{}
	}
	return d.events, only
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
