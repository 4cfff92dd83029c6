package loadgen

import (
	"fmt"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
)

// The load driver: replays the churn stream through the token bucket
// while the fleet evaluates it — batch mode re-sweeps the coordinator;
// push mode feeds a fleet.Streamer that re-runs only the checks each
// event's state key affects — and measures change→verdict detection
// latency per event.
//
// A Replay is that driver as a stepper: its owner keeps the clock and
// calls Tick with the current instant, a plain time.Duration offset from
// replay start, and each tick is exactly one evaluation: an incremental
// sweep in sweep mode, a flush in push mode. Run ticks it on a virtual
// clock every SweepEvery or Window; vdo-serve ticks the same Replay from
// a wall-clock ticker. The bucket computes each event's admission
// instant arithmetically and a sweep or flush is treated as atomic at
// the tick's instant, so the detection latency of an event admitted at t
// and picked up at instant v is exactly v−t — bounded by the tick
// interval, SweepEvery in sweep mode and Window in push mode, which is
// the whole point of the streaming evaluator. On the virtual clock
// everything downstream of the seed is deterministic; the wall clock is
// only read to report real replay throughput.

// DriverOptions parameterizes one load replay.
type DriverOptions struct {
	// Duration is the virtual replay length Run replays (a Replay whose
	// owner keeps the clock reads it only for the interval defaults);
	// SweepEvery the sweep-mode interval between incremental sweeps
	// (default Duration/10), which push mode ignores.
	Duration   time.Duration
	SweepEvery time.Duration
	// Rate is the offered churn load in events per second of the
	// replay's clock; Burst the token-bucket burst (default 1).
	Rate  float64
	Burst int
	// Shards/Workers configure each sweep (see fleet.Options).
	Shards  int
	Workers int
	// Push selects streaming evaluation: events mark hosts dirty through
	// EventLog subscriptions and a fleet.Streamer flushes the coalesced
	// deltas every Window; no sweep runs.
	Push bool
	// Window is the push-mode coalescing window (default Duration/100),
	// which sweep mode ignores.
	Window time.Duration
	// Metrics, when non-nil, receives the replay's own facts as load.*
	// metrics (the event counters and load.detect latency samples as they
	// happen, the gauges at each Stats call), and is passed to the
	// streamer and the sweeps for their stream.* and fleet.* metrics.
	Metrics *telemetry.Metrics
	// Trace, when non-nil, instruments every sweep and flush with spans
	// (sweep→shard→host, flush→delta). Attach a store via
	// telemetry.WithSink to keep the replay's traces queryable — the
	// straggler-search hook behind vdo-load -slowest.
	Trace *telemetry.Tracer
}

// LoadStats is the outcome of one replay.
type LoadStats struct {
	// Hosts is the fleet size when the replay ended (joins and leaves
	// move it); Down how many members were unreachable at the end.
	Hosts int
	Down  int

	// Events counts applied churn events; Skipped draws that found no
	// eligible target; Drift the subset of applied events that broke
	// compliance. Joins/Leaves/Outages/Restores break out membership and
	// connectivity events.
	Events   int
	Skipped  int
	Drift    int
	Joins    int
	Leaves   int
	Outages  int
	Restores int

	// Detected counts events whose verdict arrived (the samples under
	// Detect); Orphaned events whose host left before a sweep saw them;
	// Pending events still awaiting a verdict when the replay ended.
	Detected int
	Orphaned int
	Pending  int

	// Sweep-mode counters (zero in push mode): Sweeps is how many
	// incremental sweeps ran (the priming full sweep excluded);
	// HostsReaudited how many per-host audits executed across them;
	// CacheReplays how many were served from the incremental cache. The
	// host counts are summed from each sweep's FleetStats.
	Sweeps         int
	HostsReaudited int
	CacheReplays   int

	// Push-mode counters, summed from each Tick's FlushResult (zero in
	// sweep mode; the priming flush is excluded throughout). Flushes
	// counts coalescing windows that evaluated at least one dirty host;
	// DeltaHosts the per-flush host evaluations;
	// ChecksEvaluated/ChecksExecuted the catalogue entries the deltas
	// resolved respectively actually executed (dedup replays
	// subtracted). ChecksPerEvent = ChecksEvaluated/Events is the
	// O(changed keys) headline: it must sit far below the catalogue
	// size. Alarms/Repairs count violation episodes the live view opened
	// and closed.
	Mode            string
	Window          time.Duration
	Flushes         int
	DeltaHosts      int
	ChecksEvaluated int
	ChecksExecuted  int
	ChecksPerEvent  float64
	Alarms          int
	Repairs         int

	// VirtualDuration is the replayed virtual time; OfferedRate the
	// bucket rate; AchievedRate applied events per virtual second.
	VirtualDuration time.Duration
	OfferedRate     float64
	AchievedRate    float64

	// ReplayWall is the real elapsed time of the whole replay (priming
	// and sweeps included); RealEventsPerSec applied events per real
	// second — the harness's throughput figure.
	ReplayWall       time.Duration
	RealEventsPerSec float64

	// Detect summarizes change→verdict detection latency on the replay's
	// clock: how long an admitted event waited until a sweep or flush
	// produced a verdict for its host.
	Detect telemetry.QuantileStats
}

// Table renders st as the measure/value table vdo-load prints after a
// replay and vdo-serve at the end of a session.
func (st LoadStats) Table(title string) *report.Table {
	t := report.New(title, "measure", "value")
	t.AddRow("events applied / skipped", fmt.Sprintf("%d / %d", st.Events, st.Skipped))
	t.AddRow("drift events", st.Drift)
	t.AddRow("joins / leaves", fmt.Sprintf("%d / %d", st.Joins, st.Leaves))
	t.AddRow("outages / restores", fmt.Sprintf("%d / %d", st.Outages, st.Restores))
	t.AddRow("detected / orphaned / pending", fmt.Sprintf("%d / %d / %d", st.Detected, st.Orphaned, st.Pending))
	if st.Mode == "push" {
		t.AddRow("flush window", st.Window.String())
		t.AddRow("flushes / delta hosts", fmt.Sprintf("%d / %d", st.Flushes, st.DeltaHosts))
		t.AddRow("checks evaluated / executed", fmt.Sprintf("%d / %d", st.ChecksEvaluated, st.ChecksExecuted))
		t.AddRow("checks per event", fmt.Sprintf("%.2f", st.ChecksPerEvent))
		t.AddRow("alarms / repairs", fmt.Sprintf("%d / %d", st.Alarms, st.Repairs))
	} else {
		t.AddRow("sweeps", st.Sweeps)
		t.AddRow("host audits executed / cached", fmt.Sprintf("%d / %d", st.HostsReaudited, st.CacheReplays))
	}
	t.AddRow("detect p50 / p95 / p99 ms", fmt.Sprintf("%s / %s / %s",
		report.Millis(st.Detect.P50), report.Millis(st.Detect.P95), report.Millis(st.Detect.P99)))
	t.AddRow("detect max ms", report.Millis(st.Detect.Max))
	t.AddRow("achieved virtual ev/s", fmt.Sprintf("%.1f", st.AchievedRate))
	t.AddRow("replay wall ms", report.Millis(st.ReplayWall))
	t.AddRow("real ev/s", fmt.Sprintf("%.0f", st.RealEventsPerSec))
	return t
}

// Run replays churn against the fleet on a virtual clock: it ticks a
// Replay every SweepEvery in sweep mode (the default) and every Window
// in push mode (DriverOptions.Push). Both modes admit the identical
// event stream, so they are directly comparable on the same seed.
func Run(f *Fleet, c *Churn, opts DriverOptions) (LoadStats, error) {
	if opts.Duration <= 0 {
		return LoadStats{}, fmt.Errorf("loadgen: driver duration %v, need > 0", opts.Duration)
	}
	opts = opts.normalized()
	tick := opts.SweepEvery
	if opts.Push {
		tick = opts.Window
	}
	if tick > opts.Duration {
		// The loop below would never run: no event admitted, no
		// verdict, and every latency gate passing vacuously.
		return LoadStats{}, fmt.Errorf("loadgen: tick %v (the sweep interval, or the push window) exceeds duration %v", tick, opts.Duration)
	}
	r, err := NewReplay(f, c, opts)
	if err != nil {
		return LoadStats{}, err
	}
	for now := tick; now <= opts.Duration; now += tick {
		r.Tick(now)
	}
	return r.Stats(), nil
}

// normalized fills in the interval of the replay's mode from Duration:
// SweepEvery in sweep mode, Window in push mode.
func (o DriverOptions) normalized() DriverOptions {
	if o.Push && o.Window <= 0 {
		o.Window = o.Duration / 100
		if o.Window <= 0 {
			o.Window = o.Duration
		}
	}
	if !o.Push && o.SweepEvery <= 0 {
		o.SweepEvery = o.Duration / 10
		if o.SweepEvery <= 0 {
			o.SweepEvery = o.Duration
		}
	}
	return o
}

// Replay is one churn replay driven by its owner's clock. It owns the
// token bucket, the coordinator, the Streamer in push mode, the events
// awaiting a verdict and the detection-latency recorder. It counts only
// its own facts: the flush and sweep counters of LoadStats are summed
// from what each Tick's FlushResult and FleetStats report, and the
// registry gets them as the streamer's stream.* and the sweeps' fleet.*
// metrics, not again as load.* ones. Tick and Stats must not be called
// concurrently.
type Replay struct {
	f         *Fleet
	c         *Churn
	opts      DriverOptions
	bucket    *TokenBucket
	coord     *fleet.Coordinator
	sweepOpts fleet.Options
	s         *fleet.Streamer
	// pending maps host name -> admission instants of its events still
	// awaiting a verdict.
	pending  map[string][]time.Duration
	detect   *telemetry.Quantiles
	admitted time.Duration // last admission instant
	now      time.Duration // last tick's instant
	start    time.Time     // real clock: throughput reporting only
	st       LoadStats     // the counters Tick keeps
}

// NewReplay primes a replay at instant 0: a full sweep, or in push mode
// the first flush of a Streamer watching every host. The priming
// evaluation is not counted in the stats.
func NewReplay(f *Fleet, c *Churn, opts DriverOptions) (*Replay, error) {
	opts = opts.normalized()
	bucket, err := NewTokenBucket(opts.Rate, opts.Burst)
	if err != nil {
		return nil, err
	}
	r := &Replay{
		f: f, c: c, opts: opts, bucket: bucket,
		coord: fleet.NewCoordinator(),
		sweepOpts: fleet.Options{
			Mode:        core.CheckOnly,
			Shards:      opts.Shards,
			Workers:     opts.Workers,
			Incremental: true,
			Trace:       opts.Trace,
			Metrics:     opts.Metrics,
		},
		pending: map[string][]time.Duration{},
		detect:  telemetry.NewQuantilesCap(1 << 16),
		start:   time.Now(),
		st:      LoadStats{Mode: "sweep"},
	}
	// admit advances the event counters as events happen; registering
	// them at zero lists them even when none does.
	for _, name := range []string{"load.events", "load.events.skipped", "load.events.drift", "load.events.orphaned"} {
		opts.Metrics.Add(name, 0)
	}
	if !opts.Push {
		r.coord.Sweep(f.Targets(), r.sweepOpts)
		return r, nil
	}
	r.st.Mode, r.st.Window = "push", opts.Window
	r.s = fleet.NewStreamer(r.coord, fleet.StreamOptions{
		Mode:    core.CheckOnly,
		Shards:  opts.Shards,
		Workers: opts.Workers,
		Dedup:   true,
		Metrics: opts.Metrics,
		Trace:   opts.Trace,
	})
	for _, h := range f.Hosts() {
		r.s.Watch(h.Target(), h.Linux.Log())
	}
	r.s.Flush(0)
	return r, nil
}

// Streamer is the push-mode live evaluator (nil in sweep mode), for
// reading its compliance view.
func (r *Replay) Streamer() *fleet.Streamer { return r.s }

// Tick advances the replay to instant now: it admits the bucket's due
// events, then runs one evaluation, a Streamer flush in push mode or an
// incremental sweep in sweep mode, and returns the flush (zero in sweep
// mode). Each event whose host the flush or an executed host audit
// evaluated gets its verdict at now.
func (r *Replay) Tick(now time.Duration) fleet.FlushResult {
	r.now = now
	r.admit(now)
	if r.s != nil {
		fr := r.s.Flush(now)
		r.st.addFlush(fr)
		for _, d := range fr.Hosts {
			// Every flushed host's live view is now current — a
			// zero-check re-stamp is a verdict too (the change provably
			// touched nothing) — so its events resolve.
			r.resolve(d.Host, now)
		}
		return fr
	}
	rep, fs := r.coord.Sweep(r.f.Targets(), r.sweepOpts)
	r.st.Sweeps++
	r.st.HostsReaudited += fs.Hosts - fs.CachedHosts
	r.st.CacheReplays += fs.CachedHosts
	for _, hr := range rep.Hosts {
		// An executed host audit delivers the verdicts for that host's
		// pending events.
		if !hr.FromCache {
			r.resolve(hr.Target, now)
		}
	}
	return fleet.FlushResult{}
}

// addFlush adds one flush to the push-mode counters; a flush that
// evaluated no host is not a coalescing window.
func (st *LoadStats) addFlush(fr fleet.FlushResult) {
	if len(fr.Hosts) == 0 {
		return
	}
	st.Flushes++
	st.DeltaHosts += len(fr.Hosts)
	st.ChecksEvaluated += fr.ChecksEvaluated
	st.ChecksExecuted += fr.ChecksExecuted
	st.Alarms += len(fr.Alarms)
	st.Repairs += fr.Repairs
}

// admit drains the bucket's due events up to instant now, applying each
// through the churn engine and recording it as pending. In push mode a
// joining host is watched and a leaving one unwatched; in sweep mode a
// leaving one is invalidated, so it leaves no cache entry behind.
func (r *Replay) admit(now time.Duration) {
	st, m := &r.st, r.opts.Metrics
	for {
		at := r.bucket.When(r.admitted)
		if at > now {
			return
		}
		r.bucket.Take(at)
		r.admitted = at
		ev, ok := r.c.Step()
		if !ok {
			st.Skipped++
			m.Add("load.events.skipped", 1)
			continue
		}
		st.Events++
		m.Add("load.events", 1)
		if ev.Drift {
			st.Drift++
			m.Add("load.events.drift", 1)
		}
		switch ev.Kind {
		case HostJoin:
			st.Joins++
			if h, ok := r.f.Get(ev.Host); ok && r.s != nil {
				r.s.Watch(h.Target(), h.Linux.Log())
			}
		case HostLeave:
			// The member is gone: its verdict never arrives.
			st.Leaves++
			orphaned := len(r.pending[ev.Host])
			st.Orphaned += orphaned
			m.Add("load.events.orphaned", int64(orphaned))
			delete(r.pending, ev.Host)
			if r.s != nil {
				r.s.Unwatch(ev.Host)
			} else {
				r.coord.Invalidate(ev.Host)
			}
			continue
		case HostDown:
			st.Outages++
		case HostUp:
			st.Restores++
		}
		r.pending[ev.Host] = append(r.pending[ev.Host], at)
	}
}

// resolve delivers verdicts for one host's pending events at instant
// now, observing each latency.
func (r *Replay) resolve(name string, now time.Duration) {
	times := r.pending[name]
	if len(times) == 0 {
		return
	}
	for _, t0 := range times {
		lat := now - t0
		r.detect.Observe(lat)
		r.opts.Metrics.Sample("load.detect", lat)
	}
	r.st.Detected += len(times)
	delete(r.pending, name)
}

// Stats returns the replay's outcome up to the last tick and sets the
// load.* gauges from it.
func (r *Replay) Stats() LoadStats {
	st := r.st
	for _, times := range r.pending {
		st.Pending += len(times)
	}
	st.Hosts = r.f.Size()
	st.Down = r.f.DownCount()
	st.VirtualDuration = r.now
	st.OfferedRate = r.opts.Rate
	if s := r.now.Seconds(); s > 0 {
		st.AchievedRate = float64(st.Events) / s
	}
	st.ReplayWall = time.Since(r.start)
	if s := st.ReplayWall.Seconds(); s > 0 {
		st.RealEventsPerSec = float64(st.Events) / s
	}
	st.Detect = r.detect.Snapshot()
	if st.Events > 0 {
		st.ChecksPerEvent = float64(st.ChecksEvaluated) / float64(st.Events)
	}
	m := r.opts.Metrics
	m.SetGauge("load.events.pending", float64(st.Pending))
	m.SetGauge("load.hosts", float64(st.Hosts))
	m.SetGauge("load.rate.virtual", st.AchievedRate)
	m.SetGauge("load.rate.real", st.RealEventsPerSec)
	return st
}
