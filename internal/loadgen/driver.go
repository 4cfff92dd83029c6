package loadgen

import (
	"fmt"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/telemetry"
)

// The load driver: replays the churn stream through the token bucket
// while the fleet evaluates it — batch mode re-sweeps the coordinator
// every SweepEvery; push mode feeds a fleet.Streamer that re-runs only
// the checks each event's state key affects, flushing every Window —
// and measures change→verdict detection latency per event.
//
// Time is virtual — a plain time.Duration offset from replay start. The
// bucket computes each event's admission instant arithmetically and a
// sweep or flush is treated as atomic at the current virtual instant, so
// the detection latency of an event admitted at t and picked up at
// instant v is exactly v−t — bounded by SweepEvery in sweep mode and by
// Window in push mode, which is the whole point of the streaming
// evaluator. Everything downstream of the seed is deterministic; the
// wall clock is only read to report real replay throughput.

// DriverOptions parameterizes one load replay.
type DriverOptions struct {
	// Duration is the virtual replay length; SweepEvery the virtual
	// interval between incremental sweeps (default Duration/10). In push
	// mode SweepEvery is the fallback full-sweep interval — the safety
	// net for state the index cannot localise.
	Duration   time.Duration
	SweepEvery time.Duration
	// Rate is the offered churn load in events per virtual second;
	// Burst the token-bucket burst (default 1).
	Rate  float64
	Burst int
	// Shards/Workers configure each sweep (see fleet.Options).
	Shards  int
	Workers int
	// Push selects streaming evaluation: events mark hosts dirty through
	// EventLog subscriptions and a fleet.Streamer flushes the coalesced
	// deltas every Window, with a fallback sweep every SweepEvery.
	Push bool
	// Window is the push-mode coalescing window (default SweepEvery/10).
	Window time.Duration
	// Metrics, when non-nil, receives load.* counters and the
	// load.detect latency samples.
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

	// Sweeps is how many incremental sweeps ran (the priming full sweep
	// excluded) — in push mode, the fallback sweeps; HostsReaudited how
	// many per-host audits executed across them; CacheReplays how many
	// were served from the incremental cache.
	Sweeps         int
	HostsReaudited int
	CacheReplays   int

	// Push-mode counters (zero in sweep mode; the priming flush is
	// excluded throughout). Flushes counts coalescing windows that
	// evaluated at least one dirty host; DeltaHosts the per-flush host
	// evaluations; ChecksEvaluated/ChecksExecuted the catalogue entries
	// the deltas resolved respectively actually executed (dedup replays
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

	// ReplayWall is the real elapsed time of the whole replay (sweeps
	// included); RealEventsPerSec applied events per real second — the
	// harness's throughput figure.
	ReplayWall       time.Duration
	RealEventsPerSec float64

	// Detect summarizes change→verdict detection latency on the virtual
	// clock: how long an admitted event waited until a sweep produced a
	// verdict for its host.
	Detect telemetry.QuantileStats
}

// Run replays churn against the fleet in one loop for both modes. Each
// tick admits the bucket's due events, push mode flushes a
// fleet.Streamer, and an incremental sweep runs whenever the virtual
// clock reaches the next SweepEvery boundary. Sweep mode (the default)
// ticks every SweepEvery with no Streamer, so every tick sweeps. Push
// mode (DriverOptions.Push) ticks every Window, and the sweep is the
// fallback. Both modes admit the identical event stream, so they are
// directly comparable on the same seed. The priming evaluation at
// virtual instant 0 — a full sweep, or the first flush — is not counted
// in the stats.
func Run(f *Fleet, c *Churn, opts DriverOptions) (LoadStats, error) {
	if opts.Duration <= 0 {
		return LoadStats{}, fmt.Errorf("loadgen: driver duration %v, need > 0", opts.Duration)
	}
	if opts.SweepEvery <= 0 {
		opts.SweepEvery = opts.Duration / 10
		if opts.SweepEvery <= 0 {
			opts.SweepEvery = opts.Duration
		}
	}
	tick := opts.SweepEvery
	if opts.Push {
		if opts.Window <= 0 {
			opts.Window = opts.SweepEvery / 10
			if opts.Window <= 0 {
				opts.Window = opts.SweepEvery
			}
		}
		tick = opts.Window
	}
	if tick > opts.Duration {
		// The loop below would never run: no event admitted, no
		// verdict, and every latency gate passing vacuously.
		return LoadStats{}, fmt.Errorf("loadgen: tick %v (the sweep interval, or the push window) exceeds duration %v", tick, opts.Duration)
	}
	bucket, err := NewTokenBucket(opts.Rate, opts.Burst)
	if err != nil {
		return LoadStats{}, err
	}
	sweepOpts := fleet.Options{
		Mode:        core.CheckOnly,
		Shards:      opts.Shards,
		Workers:     opts.Workers,
		Incremental: true,
		Trace:       opts.Trace,
	}

	start := time.Now() // real clock: throughput reporting only
	coord := fleet.NewCoordinator()
	st := LoadStats{Mode: "sweep"}
	var s *fleet.Streamer
	var onJoin, onLeave func(name string)
	if opts.Push {
		st.Mode, st.Window = "push", opts.Window
		s = fleet.NewStreamer(coord, fleet.StreamOptions{
			Mode:    core.CheckOnly,
			Shards:  opts.Shards,
			Workers: opts.Workers,
			Dedup:   true,
			Metrics: opts.Metrics,
			Trace:   opts.Trace,
		})
		for _, h := range f.Hosts() {
			s.Watch(h.Target(), h.Linux.Log())
		}
		s.Flush(0)
		onJoin = func(name string) {
			if h, ok := f.Get(name); ok {
				s.Watch(h.Target(), h.Linux.Log())
			}
		}
		onLeave = func(name string) { s.Unwatch(name) }
	} else {
		coord.Sweep(f.Targets(), sweepOpts)
	}

	detect := telemetry.NewQuantilesCap(1 << 16)
	// pending maps host name -> virtual admission times of its events
	// still awaiting a verdict.
	pending := map[string][]time.Duration{}

	admitted := time.Duration(0) // last admission instant
	vend := time.Duration(0)     // last tick actually replayed
	nextSweep := opts.SweepEvery
	for vnow := tick; vnow <= opts.Duration; vnow += tick {
		vend = vnow
		admitted = admitUpTo(c, bucket, vnow, admitted, &st, pending, onJoin, onLeave)

		if s != nil {
			fr := s.Flush(vnow)
			if len(fr.Hosts) > 0 {
				st.Flushes++
				st.DeltaHosts += len(fr.Hosts)
				st.ChecksEvaluated += fr.ChecksEvaluated
				st.ChecksExecuted += fr.ChecksExecuted
				st.Alarms += len(fr.Alarms)
				st.Repairs += fr.Repairs
				for _, d := range fr.Hosts {
					// Every flushed host's live view is now current — a
					// zero-check re-stamp is a verdict too (the change
					// provably touched nothing) — so its events resolve.
					resolvePending(pending, d.Host, vnow, detect, opts.Metrics, &st)
				}
			}
		}

		if vnow >= nextSweep {
			nextSweep += opts.SweepEvery
			rep, _ := coord.Sweep(f.Targets(), sweepOpts)
			st.Sweeps++
			for _, hr := range rep.Hosts {
				if hr.FromCache {
					st.CacheReplays++
					continue
				}
				// An executed host audit delivers the verdicts for that
				// host's pending events (in push mode: state the stream
				// missed).
				st.HostsReaudited++
				resolvePending(pending, hr.Target, vnow, detect, opts.Metrics, &st)
			}
		}
	}

	finishStats(&st, f, opts, pending, vend, start, detect)
	return st, nil
}

// admitUpTo drains the bucket's due events up to virtual instant vnow,
// applying each through the churn engine and recording it in st and
// pending. onJoin/onLeave, when non-nil, observe membership changes (the
// push driver wires and unwires the streamer there). admitted is the
// last admission instant, threaded between calls.
func admitUpTo(c *Churn, bucket *TokenBucket, vnow, admitted time.Duration,
	st *LoadStats, pending map[string][]time.Duration,
	onJoin, onLeave func(name string)) time.Duration {
	for {
		at := bucket.When(admitted)
		if at > vnow {
			return admitted
		}
		bucket.Take(at)
		admitted = at
		ev, ok := c.Step()
		if !ok {
			st.Skipped++
			continue
		}
		st.Events++
		if ev.Drift {
			st.Drift++
		}
		switch ev.Kind {
		case HostJoin:
			st.Joins++
			if onJoin != nil {
				onJoin(ev.Host)
			}
		case HostLeave:
			st.Leaves++
		case HostDown:
			st.Outages++
		case HostUp:
			st.Restores++
		}
		if ev.Kind == HostLeave {
			// The member is gone: its verdict never arrives.
			st.Orphaned += len(pending[ev.Host])
			delete(pending, ev.Host)
			if onLeave != nil {
				onLeave(ev.Host)
			}
			continue
		}
		pending[ev.Host] = append(pending[ev.Host], at)
	}
}

// resolvePending delivers verdicts for one host's pending events at
// virtual instant vnow, observing each latency.
func resolvePending(pending map[string][]time.Duration, name string,
	vnow time.Duration, detect *telemetry.Quantiles, m *telemetry.Metrics, st *LoadStats) {
	times := pending[name]
	if len(times) == 0 {
		return
	}
	for _, t0 := range times {
		lat := vnow - t0
		detect.Observe(lat)
		m.Sample("load.detect", lat)
	}
	st.Detected += len(times)
	delete(pending, name)
}

// finishStats fills the end-of-replay roll-up, push-mode counters
// included.
func finishStats(st *LoadStats, f *Fleet, opts DriverOptions,
	pending map[string][]time.Duration, vend time.Duration,
	start time.Time, detect *telemetry.Quantiles) {
	for _, times := range pending {
		st.Pending += len(times)
	}
	st.Hosts = f.Size()
	st.Down = f.DownCount()
	st.VirtualDuration = vend
	st.OfferedRate = opts.Rate
	if s := vend.Seconds(); s > 0 {
		st.AchievedRate = float64(st.Events) / s
	}
	st.ReplayWall = time.Since(start)
	if s := st.ReplayWall.Seconds(); s > 0 {
		st.RealEventsPerSec = float64(st.Events) / s
	}
	st.Detect = detect.Snapshot()

	m := opts.Metrics
	m.Add("load.events", int64(st.Events))
	m.Add("load.events.skipped", int64(st.Skipped))
	m.Add("load.events.drift", int64(st.Drift))
	m.Add("load.events.orphaned", int64(st.Orphaned))
	m.Add("load.events.pending", int64(st.Pending))
	m.Add("load.sweeps", int64(st.Sweeps))
	m.Add("load.hosts.reaudited", int64(st.HostsReaudited))
	m.Add("load.hosts.cache-replays", int64(st.CacheReplays))
	m.SetGauge("load.hosts", float64(st.Hosts))
	m.SetGauge("load.rate.virtual", st.AchievedRate)
	m.SetGauge("load.rate.real", st.RealEventsPerSec)
	if !opts.Push {
		return
	}
	if st.Events > 0 {
		st.ChecksPerEvent = float64(st.ChecksEvaluated) / float64(st.Events)
	}
	m.Add("load.flushes", int64(st.Flushes))
	m.Add("load.delta-hosts", int64(st.DeltaHosts))
	m.Add("load.checks.evaluated", int64(st.ChecksEvaluated))
	m.Add("load.checks.executed", int64(st.ChecksExecuted))
	m.Add("load.alarms", int64(st.Alarms))
	m.Add("load.repairs", int64(st.Repairs))
	m.SetGauge("load.checks-per-event", st.ChecksPerEvent)
}
