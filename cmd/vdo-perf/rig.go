package main

import (
	"runtime"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/loadgen"
	"veridevops/internal/telemetry"
)

// rig is one phase's system under test: a freshly synthesized fleet, its
// churn stream and the evaluator the workload names, driven from this one
// goroutine through the public loadgen and fleet APIs only.
type rig struct {
	w     workload
	f     *loadgen.Fleet
	churn *loadgen.Churn
	coord *fleet.Coordinator
	s     *fleet.Streamer // nil in sweep mode
	opts  fleet.Options   // every Sweep call: fallback (push) or evaluating (sweep)

	// view is the evaluator's current verdicts per host: the last merged
	// DeltaResult report (push) or the last sweep's report (sweep).
	view map[string]core.Report
	// pending holds, per host, the due times of applied events no
	// evaluation has covered yet.
	pending map[string][]time.Duration
	// ins meters the public calls; nil outside the traced phase.
	ins *instruments
	// setup is the time from the start of synthesis to the first complete
	// verdict view.
	setup time.Duration
}

// newRig synthesizes the fleet from seed, primes the evaluator and seeds
// the churn stream with churnSeed. tracer and ins are nil outside the
// traced phase.
func newRig(w workload, hosts int, seed, churnSeed int64, tracer *telemetry.Tracer, ins *instruments) (*rig, error) {
	start := time.Now()
	top := w.topology()
	f, err := loadgen.Synthesize(top, hosts, seed)
	if err != nil {
		return nil, err
	}
	r := &rig{
		w:     w,
		f:     f,
		churn: loadgen.NewChurn(f, top.Mix, churnSeed),
		coord: fleet.NewCoordinator(),
		opts: fleet.Options{
			Mode:        core.CheckOnly,
			Shards:      shards,
			Workers:     workers,
			Incremental: true,
			Dedup:       true,
			Trace:       tracer,
		},
		view:    map[string]core.Report{},
		pending: map[string][]time.Duration{},
		ins:     ins,
	}
	if w.push() {
		r.s = fleet.NewStreamer(r.coord, fleet.StreamOptions{
			Mode:    core.CheckOnly,
			Shards:  shards,
			Workers: workers,
			Dedup:   true,
			Trace:   tracer,
		})
		for _, h := range f.Hosts() {
			r.watch(h)
		}
		for _, d := range r.s.Flush(0).Hosts {
			r.view[d.Host] = d.Result.Report
		}
	} else {
		rep, _ := r.coord.Sweep(f.Targets(), r.opts)
		r.foldReport(rep)
	}
	r.setup = time.Since(start)
	return r, nil
}

// sample is one measured event's detection latency, keyed by its due time.
type sample struct {
	due, lat time.Duration
}

// evalTotals sums what the evaluating calls did: Streamer.Flush in push
// mode, the incremental Sweep in sweep mode, where every re-audited host
// counts as a full delta.
type evalTotals struct {
	calls           int // calls that evaluated at least one host
	hosts           int
	full            int
	events          int // log events coalesced (push); churn events covered (sweep)
	checksEvaluated int
	checksExecuted  int
	dedupHits       int
	dedupMisses     int
	attempts        int
	errors          int
	alarms          int
	repairs         int
}

func (e *evalTotals) add(o evalTotals) {
	e.calls += o.calls
	e.hosts += o.hosts
	e.full += o.full
	e.events += o.events
	e.checksEvaluated += o.checksEvaluated
	e.checksExecuted += o.checksExecuted
	e.dedupHits += o.dedupHits
	e.dedupMisses += o.dedupMisses
	e.attempts += o.attempts
	e.errors += o.errors
	e.alarms += o.alarms
	e.repairs += o.repairs
}

// sweepTotals sums the Sweep calls of a phase: push-mode fallbacks or
// sweep-mode evaluations.
type sweepTotals struct {
	n           int
	hosts       int
	cached      int
	wall        time.Duration // timed at the driver
	max         time.Duration
	utilization float64 // summed over sweeps
	imbalance   float64 // summed over sweeps
}

func (s *sweepTotals) add(o sweepTotals) {
	s.n += o.n
	s.hosts += o.hosts
	s.cached += o.cached
	s.wall += o.wall
	s.max = max(s.max, o.max)
	s.utilization += o.utilization
	s.imbalance += o.imbalance
}

// phaseStats is what one drive measured.
type phaseStats struct {
	// wall is the loop's elapsed time, set-up and oracle excluded, and
	// allocBytes the heap bytes allocated meanwhile.
	wall       time.Duration
	allocBytes uint64
	events     int // churn events applied
	// measured counts the events due in an open loop's measured window;
	// samples and late cover the ones a verdict can reach (leaves have
	// none): detection latency and how late the driver admitted them.
	measured int
	samples  []sample
	late     []time.Duration
	eval     evalTotals
	// sweeps covers every sweep of a flat-out phase and the sweeps an open
	// loop starts in its measured window.
	sweeps sweepTotals
	// localization is the evaluator's read localization at the end.
	localization float64
	// cpu is the process CPU time over an open loop's measured window;
	// gcCPU and busyCPU are the runtime's GC and non-idle CPU seconds.
	cpu            time.Duration
	gcCPU, busyCPU float64
	// markWall and markEvents are the wall time and applied events when
	// a flat-out schedule reached its mark.
	markWall   time.Duration
	markEvents int
}

// rate is the applied events per wall second.
func (ps *phaseStats) rate() float64 { return ratio(float64(ps.events), ps.wall.Seconds()) }

// drive is one run of the churn stream through the evaluator.
type drive struct {
	r      *rig
	ps     *phaseStats
	open   bool
	warmup time.Duration
	start  time.Time
	batch  []dueEvent // a tick's applied events, reused across ticks
}

// now is the phase clock: wall time since the start in an open loop, the
// tick's virtual time otherwise.
func (d *drive) now(virtual time.Duration) time.Duration {
	if d.open {
		return time.Since(d.start)
	}
	return virtual
}

// run drives the churn stream for length on the tick cadence. An open loop
// follows the wall clock: events fall due on a token bucket at the
// workload rate, and each tick admits what is due, however late the
// driver is. Otherwise the same schedule runs on a virtual clock as fast
// as the evaluator allows, so every run does identical work. Events due
// before warmup are applied but not sampled. A flat-out run notes its wall
// and event count at the tick that reaches mark. A final drain evaluates
// what the last tick left dirty.
func (r *rig) run(open bool, warmup, length, mark time.Duration) *phaseStats {
	// Room for two ticks' events: a flat-out tick never needs more, so the
	// metered steps never grow the batch.
	perTick := int(r.w.Rate*tick.Seconds()) + 1
	d := &drive{r: r, ps: &phaseStats{}, open: open, warmup: warmup, batch: make([]dueEvent, 0, 2*perTick)}
	bucket, err := loadgen.NewTokenBucket(r.w.Rate, 1)
	if err != nil {
		panic(err) // parseWorkload guarantees a positive rate
	}
	var admitted time.Duration
	period := r.w.evalPeriod()
	nextSweep := period
	uncovered := 0 // churn events no sweep has seen yet
	var cpu0 cpuMark
	// Start every loop at the same point of the GC cycle, not wherever
	// set-up's allocations left it.
	runtime.GC()
	alloc0 := totalAlloc()
	d.start = time.Now()
	for at := tick; at <= length; {
		if open {
			if wait := at - time.Since(d.start); wait > 0 {
				time.Sleep(wait)
			}
			if at >= warmup && !cpu0.set {
				cpu0 = readCPU()
			}
		}
		now := d.now(at)
		uncovered += d.admit(bucket, &admitted, now)
		if r.s != nil {
			d.flush(now)
		}
		if now >= nextSweep {
			for nextSweep <= now {
				nextSweep += period
			}
			d.sweep(now >= warmup, uncovered)
			uncovered = 0
		}
		if open {
			// Like a time.Ticker: when ticks fell due while this one ran,
			// the latest fires at once and the others are dropped.
			at = max(at+tick, time.Since(d.start)/tick*tick)
			continue
		}
		if at == mark {
			d.ps.markWall, d.ps.markEvents = time.Since(d.start), d.ps.events
		}
		at += tick
	}
	if r.s != nil {
		d.flush(d.now(length))
		d.ps.localization = r.s.Stats().ReadLocalization()
	} else if uncovered > 0 {
		d.sweep(true, uncovered)
	}
	d.ps.wall = time.Since(d.start)
	d.ps.allocBytes = totalAlloc() - alloc0
	if cpu0.set {
		d.ps.cpu, d.ps.gcCPU, d.ps.busyCPU = readCPU().since(cpu0)
	}
	return d.ps
}

// dueEvent is an applied churn event and the time it fell due.
type dueEvent struct {
	ev  loadgen.Event
	due time.Duration
}

// admit applies every event due by now and returns how many it applied.
// The churn steps run first and alone, so the allocations metered around
// them are theirs; watching joins and the driver's bookkeeping follow.
// A host that joins is watched after the tick's later steps: whatever they
// log on it is covered by its first, full evaluation.
func (d *drive) admit(bucket *loadgen.TokenBucket, admitted *time.Duration, now time.Duration) int {
	r, ps := d.r, d.ps
	var a0 uint64
	if r.ins != nil {
		a0 = r.ins.mallocs()
	}
	d.batch = d.batch[:0]
	for {
		due := bucket.When(*admitted)
		if due > now {
			break
		}
		bucket.Take(due)
		*admitted = due
		if ev, ok := r.step(); ok {
			d.batch = append(d.batch, dueEvent{ev, due})
		}
	}
	if r.ins != nil {
		r.ins.m[stepMeter].allocs += int64(r.ins.mallocs() - a0)
	}

	for _, b := range d.batch {
		ps.events++
		measured := d.open && b.due >= d.warmup
		if measured {
			ps.measured++
		}
		switch b.ev.Kind {
		case loadgen.HostJoin:
			if h, ok := r.f.Get(b.ev.Host); ok && r.s != nil {
				r.watch(h)
			}
		case loadgen.HostLeave:
			// The host is gone: its pending events never get a verdict.
			if r.s != nil {
				r.unwatch(b.ev.Host)
			}
			delete(r.view, b.ev.Host)
			delete(r.pending, b.ev.Host)
			continue
		}
		if measured {
			ps.late = append(ps.late, now-b.due)
		}
		r.pending[b.ev.Host] = append(r.pending[b.ev.Host], b.due)
	}
	return len(d.batch)
}

// resolve closes the pending events of a host an evaluation returning at
// ret covered, sampling the latency of measured ones.
func (d *drive) resolve(name string, ret time.Duration) {
	if d.open {
		for _, due := range d.r.pending[name] {
			if due >= d.warmup {
				d.ps.samples = append(d.ps.samples, sample{due: due, lat: ret - due})
			}
		}
	}
	delete(d.r.pending, name)
}

func (d *drive) flush(now time.Duration) {
	r := d.r
	var fr fleet.FlushResult
	r.ins.metered(evalMeter, func() { fr = r.s.Flush(now) })
	ret := d.now(now)
	for _, h := range fr.Hosts {
		r.view[h.Host] = h.Result.Report
		d.resolve(h.Host, ret)
	}
	if len(fr.Hosts) == 0 {
		return
	}
	e := &d.ps.eval
	e.calls++
	e.hosts += len(fr.Hosts)
	e.events += fr.Events
	e.checksEvaluated += fr.ChecksEvaluated
	e.checksExecuted += fr.ChecksExecuted
	e.alarms += len(fr.Alarms)
	e.repairs += fr.Repairs
	for _, h := range fr.Hosts {
		if h.Full {
			e.full++
		}
		if h.Result.FromCache {
			continue
		}
		st := h.Result.Stats
		e.dedupHits += st.DedupHits
		e.dedupMisses += st.DedupMisses
		e.attempts += st.Attempts
		e.errors += st.Errors
	}
}

// sweep runs one incremental Sweep: a fallback in push mode, the
// evaluation itself in sweep mode. covered is how many churn events the
// sweep is the first to see; measured says whether its wall counts.
func (d *drive) sweep(measured bool, covered int) {
	r := d.r
	var rep fleet.FleetReport
	var st fleet.FleetStats
	call := func() { rep, st = r.coord.Sweep(r.f.Targets(), r.opts) }
	t0 := time.Now()
	if r.s == nil {
		r.ins.metered(evalMeter, call)
	} else {
		call()
	}
	wall := time.Since(t0)
	ret := d.now(0)
	for _, hr := range rep.Hosts {
		if !hr.FromCache {
			d.resolve(hr.Target, ret)
		}
	}
	if r.s == nil {
		r.foldReport(rep)
		reaudited := st.Hosts - st.CachedHosts
		e := &d.ps.eval
		e.calls++
		e.hosts += reaudited
		e.full += reaudited
		e.events += covered
		e.checksEvaluated += st.CacheMisses
		e.checksExecuted += st.CacheMisses - st.DedupHits
		e.dedupHits += st.DedupHits
		e.dedupMisses += st.DedupMisses
		e.attempts += st.Attempts
		e.errors += st.Errors
		d.ps.localization = st.ReadLocalization()
	}
	if !measured {
		return
	}
	s := &d.ps.sweeps
	s.n++
	s.hosts += st.Hosts
	s.cached += st.CachedHosts
	s.wall += wall
	s.max = max(s.max, wall)
	s.utilization += st.Utilization()
	s.imbalance += st.LoadImbalance
}

// foldReport makes a sweep's report the evaluator's view.
func (r *rig) foldReport(rep fleet.FleetReport) {
	clear(r.view)
	for _, hr := range rep.Hosts {
		r.view[hr.Target] = hr.Report
	}
}

func (r *rig) step() (ev loadgen.Event, ok bool) {
	if r.ins == nil {
		return r.churn.Step()
	}
	t := time.Now()
	ev, ok = r.churn.Step()
	m := &r.ins.m[stepMeter]
	m.n++
	m.wall += time.Since(t)
	return ev, ok
}

func (r *rig) watch(h *loadgen.Host) {
	r.ins.metered(watchMeter, func() { r.s.Watch(h.Target(), h.Linux.Log()) })
}

func (r *rig) unwatch(name string) {
	r.ins.metered(unwatchMeter, func() { r.s.Unwatch(name) })
}

// pendingOnMembers counts applied events still awaiting a verdict on hosts
// that remain in the fleet.
func (r *rig) pendingOnMembers() int {
	n := 0
	for name, dues := range r.pending {
		if _, ok := r.f.Get(name); ok {
			n += len(dues)
		}
	}
	return n
}

// logEvents is the total length of the fleet's host event logs.
func (r *rig) logEvents() int {
	n := 0
	for _, h := range r.f.Hosts() {
		n += h.Linux.Log().Len()
	}
	return n
}

// liveHeap is the heap still reachable after a full collection, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
