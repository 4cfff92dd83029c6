package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/fleet"
	"veridevops/internal/gwt"
	"veridevops/internal/host"
	"veridevops/internal/loadgen"
	"veridevops/internal/pipeline"
	"veridevops/internal/resa"
	"veridevops/internal/stig"
	"veridevops/internal/tears"
	"veridevops/internal/telemetry"
	"veridevops/internal/trace"
)

// Options configures one scenario execution.
type Options struct {
	// Push evaluates through a fleet.Streamer (dependency-index deltas on
	// a flush cadence) instead of batch incremental sweeps.
	Push bool
	// Shards and Workers size the fleet evaluation pools.
	Shards, Workers int
	// VerifyReads runs the dynamic declared-reads oracle
	// (fleet.VerifyReads) over every host's final catalogue after the
	// horizon: undeclared recorded reads fail the run (push-mode
	// unsoundness observed on this very fleet), overdeclared and
	// unlocalized findings are recorded as advisory.
	VerifyReads bool
	// Trace, when non-nil, records the underlying sweep/flush span trees.
	Trace *telemetry.Tracer
}

func (o Options) normalized() Options {
	if o.Shards < 1 {
		o.Shards = 4
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// executor is the per-run state: the fleet under mutation, the evaluator
// (coordinator or streamer), and the executor-owned compliance view.
//
// Verdict state and alarm/repair episodes are tracked in the executor's
// own fleet.View, folded from the full merged per-host reports both
// evaluators return — not read from the streamer's view — so the two
// modes expose one comparable accounting, immune to the episode resets
// a re-Watch causes in the streamer.
type executor struct {
	spec Spec
	opts Options
	mode string

	fleet *loadgen.Fleet
	coord *fleet.Coordinator
	str   *fleet.Streamer
	churn *loadgen.Churn

	// view holds the live verdicts, open violation episodes and degraded
	// flags; alarms/repairs count the episodes it opened and closed.
	view    *fleet.View
	alarms  int
	repairs int
	// opened/closed count the episodes the current tick moved, for the
	// alarm/repair pulse signals.
	opened, closed int

	tr  *trace.Trace
	res *Result
}

// Run executes one scenario spec and returns its structured result. The
// run is deterministic in (spec, opts.Push): identical inputs yield
// byte-identical Report() renderings and Schedule logs.
func Run(sp Spec, opts Options) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()
	top := loadgen.DefaultTopology()
	if sp.Topology != nil {
		top = *sp.Topology
	}
	f, err := loadgen.Synthesize(top, sp.Hosts, sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}

	ex := &executor{
		spec:  sp,
		opts:  opts,
		mode:  "sweep",
		fleet: f,
		coord: fleet.NewCoordinator(),
		view:  fleet.NewView(),
		tr:    trace.New(),
	}
	if opts.Push {
		ex.mode = "push"
		ex.str = fleet.NewStreamer(ex.coord, fleet.StreamOptions{
			Mode:    core.CheckOnly,
			Shards:  opts.Shards,
			Workers: opts.Workers,
			Dedup:   true,
			Trace:   opts.Trace,
		})
		for _, h := range f.Hosts() {
			ex.str.Watch(h.Target(), h.Linux.Log())
		}
	}
	ex.res = &Result{Spec: sp, Mode: ex.mode}

	cadence := sp.cadence(opts.Push)
	horizon := sp.horizon(cadence)

	// Deferred TEARS assertions: evaluated over the completed trace.
	type gaStep struct {
		index int
		gas   []tears.GA
	}
	var deferred []gaStep

	nextTick := time.Duration(0)
	for i, st := range sp.Steps {
		for nextTick <= st.At.D() && nextTick <= horizon {
			ex.tick(nextTick)
			nextTick += cadence
		}
		if st.Expect == "ga" || st.Expect == "gwt" {
			gas, err := stepGAs(st)
			if err != nil {
				// Validate caught malformed GAs already; this is defensive.
				return nil, fmt.Errorf("scenario %s: step %d: %w", sp.Name, i, err)
			}
			deferred = append(deferred, gaStep{index: i, gas: gas})
			ex.record(StepResult{Index: i, At: st.At, Kind: st.Kind(), OK: true,
				Detail: fmt.Sprintf("deferred: %d guarded assertion(s) evaluated at end of run", len(gas))})
			continue
		}
		ex.step(i, st)
	}
	for nextTick <= horizon {
		ex.tick(nextTick)
		nextTick += cadence
	}
	ex.tr.SetEnd(ms(horizon))

	for _, d := range deferred {
		ex.evalGAs(d.index, d.gas)
	}
	if opts.VerifyReads {
		ex.verifyReads()
	}

	ex.res.Ticks = len(ex.res.Schedule) - len(ex.res.Steps)
	ex.res.Alarms, ex.res.Repairs = ex.alarms, ex.repairs
	ex.res.FinalCompliance = ex.view.Compliance()
	ex.res.FinalState = ex.view.Lines()
	ex.res.Trace = ex.tr
	sort.Slice(ex.res.Steps, func(a, b int) bool { return ex.res.Steps[a].Index < ex.res.Steps[b].Index })
	return ex.res, nil
}

// ms converts a virtual instant to trace ticks (milliseconds).
func ms(d time.Duration) trace.Time { return int64(d / time.Millisecond) }

// stepGAs materializes the guarded assertions of a ga/gwt expect step.
func stepGAs(st Step) ([]tears.GA, error) {
	if st.Expect == "ga" {
		ga, err := tears.ParseGA(st.GA)
		if err != nil {
			return nil, err
		}
		return []tears.GA{ga}, nil
	}
	scs, err := gwt.ParseScenarios(st.Gherkin)
	if err != nil {
		return nil, err
	}
	gas, errs := tears.FromScenarios(scs, st.WithinMS)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return gas, nil
}

// tick runs one evaluation pass at virtual instant now, folds the fresh
// reports into the live view and samples the compliance signals.
func (ex *executor) tick(now time.Duration) {
	ex.opened, ex.closed = 0, 0
	if ex.str != nil {
		fr := ex.str.Flush(now)
		for _, d := range fr.Hosts {
			ex.fold(now, d.Host, d.Result.Report)
		}
	} else {
		rep, _ := ex.coord.Sweep(ex.fleet.Targets(), fleet.Options{
			Mode:        core.CheckOnly,
			Shards:      ex.opts.Shards,
			Workers:     ex.opts.Workers,
			Incremental: true,
			Dedup:       true,
			Trace:       ex.opts.Trace,
		})
		for _, hr := range rep.Hosts {
			ex.fold(now, hr.Target, hr.Report)
		}
	}

	t := ms(now)
	comp := ex.view.Compliance()
	_, failing, incomplete := ex.view.Counts()
	ex.tr.SetNum("compliance", t, comp)
	ex.tr.SetNum("failing", t, float64(failing))
	ex.tr.SetNum("incomplete", t, float64(incomplete))
	ex.tr.SetNum("alarms", t, float64(ex.alarms))
	ex.tr.SetNum("repairs", t, float64(ex.repairs))
	ex.tr.SetBool("alarm", t, ex.opened > 0)
	ex.tr.SetBool("repair", t, ex.closed > 0)
	ex.log("t=%v tick compliance=%.4f failing=%d incomplete=%d alarms=%d repairs=%d",
		now, comp, failing, incomplete, ex.alarms, ex.repairs)
}

// fold merges one host report into the live view and counts the
// violation episodes it opened and closed — the monitor package's dedup
// discipline, applied identically in both modes.
func (ex *executor) fold(now time.Duration, name string, rep core.Report) {
	alarms, repairs := ex.view.Fold(now, name, rep, nil)
	ex.alarms += len(alarms)
	ex.opened += len(alarms)
	ex.repairs += repairs
	ex.closed += repairs
}

// verifyReads runs the dynamic declared-reads oracle over the fleet's
// state at the horizon: each host's current catalogue re-executes with
// a host.ReadRecorder attached and the recorded state keys are compared
// against the CheckStateKeys declarations (fleet.VerifyReads). Only
// undeclared recorded reads are fatal — they are the reads the
// dependency index would miss, i.e. observed push-mode unsoundness.
// Overdeclared keys (short-circuiting on the current state) and
// unlocalized checks (fault-wrapped catalogues drop the KeyReader
// surface) stay advisory. Down hosts record nothing and therefore
// surface at worst as advisory too.
func (ex *executor) verifyReads() {
	hosts := append([]*loadgen.Host(nil), ex.fleet.Hosts()...)
	sort.Slice(hosts, func(a, b int) bool { return hosts[a].Name < hosts[b].Name })
	fatal := 0
	for _, h := range hosts {
		for _, v := range fleet.VerifyReads(h.Catalog(), h.Linux) {
			if v.Fatal() {
				fatal++
			}
			ex.res.ReadViolations = append(ex.res.ReadViolations, fmt.Sprintf("%s: %s", h.Name, v))
		}
	}
	ex.res.FatalReadViolations = fatal
	ex.log("verify-reads: %d violation(s), %d fatal, over %d host(s)",
		len(ex.res.ReadViolations), fatal, len(hosts))
}

func (ex *executor) record(sr StepResult) {
	ex.res.Steps = append(ex.res.Steps, sr)
	verdict := "ok"
	if sr.Skipped {
		verdict = "skip"
	} else if !sr.OK {
		verdict = "FAIL"
	}
	ex.log("t=%v step#%d %s [%s] %s: %s", sr.At.D(), sr.Index, sr.Kind, sr.Target, verdict, sr.Detail)
}

func (ex *executor) log(format string, args ...any) {
	ex.res.Schedule = append(ex.res.Schedule, fmt.Sprintf(format, args...))
}

// step executes one mutation or immediate assertion.
func (ex *executor) step(i int, st Step) {
	sr := StepResult{Index: i, At: st.At, Kind: st.Kind(), Target: st.On, OK: true}
	if st.Do != "" {
		ex.mutate(&sr, st, i)
	} else {
		ex.assert(&sr, st)
	}
	ex.record(sr)
}

// resolve expands a host selector against the current membership, in
// name order. An empty result is not an error here; mutation steps skip,
// assertion steps fail.
func (ex *executor) resolve(sel string) []*loadgen.Host {
	hosts := append([]*loadgen.Host(nil), ex.fleet.Hosts()...)
	sort.Slice(hosts, func(a, b int) bool { return hosts[a].Name < hosts[b].Name })
	if sel == "*" {
		return hosts
	}
	if h, ok := ex.fleet.Get(sel); ok {
		return []*loadgen.Host{h}
	}
	pool := hosts
	idx := sel
	if cut := strings.IndexByte(sel, '#'); cut >= 0 {
		class := sel[:cut]
		idx = sel[cut+1:]
		if class != "" {
			pool = pool[:0:0]
			for _, h := range hosts {
				if h.Class == class {
					pool = append(pool, h)
				}
			}
		}
	} else {
		// A bare token that is not a member name selects a whole class.
		var members []*loadgen.Host
		for _, h := range hosts {
			if h.Class == sel {
				members = append(members, h)
			}
		}
		return members
	}
	lo, hi := -1, -1
	if cut := strings.Index(idx, ".."); cut >= 0 {
		fmt.Sscanf(idx[:cut], "%d", &lo)
		fmt.Sscanf(idx[cut+2:], "%d", &hi)
	} else {
		fmt.Sscanf(idx, "%d", &lo)
		hi = lo
	}
	if lo < 0 || hi < lo || lo >= len(pool) {
		return nil
	}
	if hi >= len(pool) {
		hi = len(pool) - 1
	}
	return pool[lo : hi+1]
}

// onHost applies one mutation, absorbing the unreachable-host panic into
// a skip: mutating a down host is a legal scenario beat (the operator's
// change did not land), not an executor crash.
func onHost(h *loadgen.Host, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == host.ErrUnreachable {
				err = host.ErrUnreachable
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// mutate executes a do-step.
func (ex *executor) mutate(sr *StepResult, st Step, stepIndex int) {
	// Single-host-at-a-time kinds share the apply loop: resolve, mutate
	// each target, record how many landed vs skipped (down hosts).
	apply := func(fn func(h *loadgen.Host)) {
		sel := ex.resolve(st.On)
		if len(sel) == 0 {
			sr.Skipped = true
			sr.OK = true
			sr.Detail = fmt.Sprintf("selector %q matched no host", st.On)
			return
		}
		applied, skipped := 0, 0
		for _, h := range sel {
			if onHost(h, func() { fn(h) }) != nil {
				skipped++
			} else {
				applied++
			}
		}
		sr.Detail = fmt.Sprintf("%d host(s), %d unreachable", applied, skipped)
		sr.Skipped = applied == 0
	}

	switch st.Do {
	case "install":
		v := st.Version
		if v == "" {
			v = "1.0"
		}
		apply(func(h *loadgen.Host) { h.Linux.Install(st.Package, v) })
		sr.Detail = fmt.Sprintf("install %s=%s: %s", st.Package, v, sr.Detail)
	case "remove":
		apply(func(h *loadgen.Host) { h.Linux.Remove(st.Package) })
		sr.Detail = fmt.Sprintf("remove %s: %s", st.Package, sr.Detail)
	case "enable":
		apply(func(h *loadgen.Host) { h.Linux.EnableService(st.Service) })
		sr.Detail = fmt.Sprintf("enable %s: %s", st.Service, sr.Detail)
	case "disable":
		apply(func(h *loadgen.Host) { h.Linux.DisableService(st.Service) })
		sr.Detail = fmt.Sprintf("disable %s: %s", st.Service, sr.Detail)
	case "flap":
		apply(func(h *loadgen.Host) {
			h.Linux.DisableService(st.Service)
			h.Linux.EnableService(st.Service)
		})
		sr.Detail = fmt.Sprintf("flap %s: %s", st.Service, sr.Detail)
	case "config":
		apply(func(h *loadgen.Host) { h.Linux.SetConfig(st.File, st.Key, st.Value) })
		sr.Detail = fmt.Sprintf("set %s:%s=%s: %s", st.File, st.Key, st.Value, sr.Detail)
	case "unset-config":
		apply(func(h *loadgen.Host) { h.Linux.UnsetConfig(st.File, st.Key) })
		sr.Detail = fmt.Sprintf("unset %s:%s: %s", st.File, st.Key, sr.Detail)
	case "join":
		var h *loadgen.Host
		if st.Class != "" {
			h = ex.fleet.JoinClass(st.Class)
		} else {
			h = ex.fleet.Join()
		}
		if h == nil {
			sr.Skipped = true
			sr.Detail = fmt.Sprintf("no class %q in topology", st.Class)
			return
		}
		if ex.str != nil {
			ex.str.Watch(h.Target(), h.Linux.Log())
		}
		sr.Target = h.Name
		sr.Detail = fmt.Sprintf("joined %s (class %s), fleet now %d", h.Name, h.Class, ex.fleet.Size())
	case "leave":
		sel := ex.resolve(st.On)
		if len(sel) == 0 {
			sr.Skipped = true
			sr.Detail = fmt.Sprintf("selector %q matched no host", st.On)
			return
		}
		var names []string
		for _, h := range sel {
			if ex.fleet.Size() <= 1 {
				break // never shrink to empty
			}
			name := h.Name
			ex.fleet.Leave(name)
			if ex.str != nil {
				ex.str.Unwatch(name)
			}
			ex.view.Drop(name)
			names = append(names, name)
		}
		sr.Skipped = len(names) == 0
		sr.Detail = fmt.Sprintf("left %s, fleet now %d", strings.Join(names, ","), ex.fleet.Size())
	case "down", "up":
		down := st.Do == "down"
		sel := ex.resolve(st.On)
		if len(sel) == 0 {
			sr.Skipped = true
			sr.Detail = fmt.Sprintf("selector %q matched no host", st.On)
			return
		}
		n := 0
		for _, h := range sel {
			if ex.fleet.SetDown(h.Name, down) {
				n++
			}
		}
		sr.Skipped = n == 0
		sr.Detail = fmt.Sprintf("%d host(s) transitioned, %d down fleet-wide", n, ex.fleet.DownCount())
	case "churn":
		if ex.churn == nil {
			top := ex.fleet.Topology
			ex.churn = loadgen.NewChurn(ex.fleet, top.Mix, ex.spec.Seed+1)
		}
		applied := 0
		for n := 0; n < st.Events; n++ {
			ev, ok := ex.churn.Step()
			if !ok {
				continue
			}
			applied++
			switch ev.Kind {
			case loadgen.HostJoin:
				if ex.str != nil {
					if h, ok := ex.fleet.Get(ev.Host); ok {
						ex.str.Watch(h.Target(), h.Linux.Log())
					}
				}
			case loadgen.HostLeave:
				if ex.str != nil {
					ex.str.Unwatch(ev.Host)
				}
				ex.view.Drop(ev.Host)
			}
		}
		sr.Target = "fleet"
		sr.Detail = fmt.Sprintf("%d/%d churn events applied, fleet now %d", applied, st.Events, ex.fleet.Size())
	case "faults":
		ex.withCatalog(sr, st, func(h *loadgen.Host, seed int64) *core.Catalog {
			nc := core.NewCatalog()
			for j, r := range h.Catalog().All() {
				nc.MustRegister(core.InjectFaults(r,
					engine.NewFaultInjector(seed+int64(j), engine.FaultPlan{FailFirst: st.FailFirst})))
			}
			return nc
		}, stepIndex)
		sr.Detail = fmt.Sprintf("fault plan fail_first=%d: %s", st.FailFirst, sr.Detail)
	case "heal":
		ex.withCatalog(sr, st, func(h *loadgen.Host, _ int64) *core.Catalog {
			return stig.UbuntuCatalog(h.Linux)
		}, stepIndex)
		sr.Detail = "restored pristine catalogue: " + sr.Detail
	case "pipeline":
		ex.pipelineStep(sr, st, stepIndex)
	case "signal":
		name := resa.Slug(st.Signal)
		ex.tr.SetNum(name, ms(st.At.D()), st.Num)
		sr.Target = name
		sr.Detail = fmt.Sprintf("signal %s=%v at t=%d ms", name, st.Num, ms(st.At.D()))
	}
}

// withCatalog swaps each selected host's catalogue and forces its next
// evaluation: the swap does not advance the host's event-log version, so
// the incremental cache entry is dropped and (in push mode) the host is
// re-watched — an unprimed watch runs the full catalogue on the next
// flush.
func (ex *executor) withCatalog(sr *StepResult, st Step, build func(h *loadgen.Host, seed int64) *core.Catalog, stepIndex int) {
	sel := ex.resolve(st.On)
	if len(sel) == 0 {
		sr.Skipped = true
		sr.Detail = fmt.Sprintf("selector %q matched no host", st.On)
		return
	}
	seed := st.Seed
	if seed == 0 {
		seed = ex.spec.Seed + int64(1000*(stepIndex+1))
	}
	for _, h := range sel {
		h.SetCatalog(build(h, seed))
		ex.coord.Invalidate(h.Name)
		if ex.str != nil {
			ex.str.Watch(h.Target(), h.Linux.Log())
		}
	}
	sr.Detail = fmt.Sprintf("%d host(s)", len(sel))
}

// pipelineStep commits a change batch through the DevOps pipeline
// simulation; violations that ship past the development gate land as
// banned-package drift on the selected hosts.
func (ex *executor) pipelineStep(sr *StepResult, st Step, stepIndex int) {
	seed := st.Seed
	if seed == 0 {
		seed = ex.spec.Seed + int64(1000*(stepIndex+1))
	}
	recall := st.GateRecall
	if recall == 0 {
		recall = 0.9
	}
	res := pipeline.Simulate(pipeline.Config{
		Prevention: true, Protection: true,
		GateRecall: recall, GateLatency: 5, BuildLatency: 10,
		MonitorPeriod: 50, Interarrival: 100,
		PCode: 0.3, PDrift: 0.05,
	}, st.Commits, rand.New(rand.NewSource(seed)))
	dev, ops, audit, escaped := res.Counts()
	shipped := ops + audit + escaped // violations the dev gate missed

	sel := ex.resolve(st.On)
	landed := 0
	if len(sel) > 0 {
		for k := 0; k < shipped; k++ {
			h := sel[k%len(sel)]
			pkg := host.BannedPackages[k%len(host.BannedPackages)]
			if onHost(h, func() { h.Linux.Install(pkg, "0.regression") }) == nil {
				landed++
			}
		}
	}
	sr.Target = st.On
	sr.Detail = fmt.Sprintf("%d commits: dev=%d ops=%d audit=%d escaped=%d; %d regression(s) shipped to hosts",
		st.Commits, dev, ops, audit, escaped, landed)
	sr.Skipped = shipped > 0 && landed == 0 && len(sel) == 0
}

// assert executes an immediate expect-step against the live view.
func (ex *executor) assert(sr *StepResult, st Step) {
	switch st.Expect {
	case "verdict":
		sel := ex.resolve(st.On)
		if len(sel) == 0 {
			sr.OK = false
			sr.Detail = fmt.Sprintf("selector %q matched no host", st.On)
			return
		}
		want := parseStatus(st.Status)
		var bad []string
		for _, h := range sel {
			got, ok := ex.view.Status(h.Name, st.Finding)
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: no verdict for %s yet", h.Name, st.Finding))
			} else if got != want {
				bad = append(bad, fmt.Sprintf("%s: %s is %s, want %s", h.Name, st.Finding, got, want))
			}
		}
		sr.OK = len(bad) == 0
		if sr.OK {
			sr.Detail = fmt.Sprintf("%d host(s): %s = %s", len(sel), st.Finding, want)
		} else {
			sr.Detail = strings.Join(bad, "; ")
		}
	case "compliance":
		got := ex.view.Compliance()
		sr.OK = cmp(got, st.Op, st.Num)
		sr.Detail = fmt.Sprintf("compliance %.4f %s %v", got, st.Op, st.Num)
	case "alarms":
		got := float64(ex.alarms)
		sr.OK = cmp(got, st.Op, st.Num)
		sr.Detail = fmt.Sprintf("alarms %d %s %v", ex.alarms, st.Op, st.Num)
	case "repairs":
		got := float64(ex.repairs)
		sr.OK = cmp(got, st.Op, st.Num)
		sr.Detail = fmt.Sprintf("repairs %d %s %v", ex.repairs, st.Op, st.Num)
	case "degraded":
		sel := ex.resolve(st.On)
		if len(sel) == 0 {
			sr.OK = false
			sr.Detail = fmt.Sprintf("selector %q matched no host", st.On)
			return
		}
		want := st.Value != "false"
		var bad []string
		for _, h := range sel {
			if got := ex.view.Degraded(h.Name); got != want {
				bad = append(bad, fmt.Sprintf("%s: degraded=%v, want %v", h.Name, got, want))
			}
		}
		sr.OK = len(bad) == 0
		if sr.OK {
			sr.Detail = fmt.Sprintf("%d host(s) degraded=%v", len(sel), want)
		} else {
			sr.Detail = strings.Join(bad, "; ")
		}
	}
}

// evalGAs evaluates a deferred ga/gwt step over the completed trace and
// rewrites its provisional step result. A vacuous pass (guard never
// held) fails the step: an assertion that was never exercised gives no
// confidence and usually means a marker signal was never emitted.
func (ex *executor) evalGAs(index int, gas []tears.GA) {
	var details []string
	ok := true
	for _, ga := range gas {
		v := tears.Evaluate(ex.tr, ga)
		ex.res.GAs = append(ex.res.GAs, GAResult{Step: index, Verdict: v})
		switch {
		case !v.Passed():
			ok = false
			details = append(details, fmt.Sprintf("%s: FAIL (%d violation(s), first at t=%d deadline t=%d)",
				ga.Name, len(v.Violations), v.Violations[0].At, v.Violations[0].Deadline))
		case v.Vacuous():
			ok = false
			details = append(details, fmt.Sprintf("%s: VACUOUS (guard never held)", ga.Name))
		default:
			details = append(details, fmt.Sprintf("%s: PASS (%d activation(s))", ga.Name, v.Activations))
		}
	}
	for i := range ex.res.Steps {
		if ex.res.Steps[i].Index == index {
			ex.res.Steps[i].OK = ok
			ex.res.Steps[i].Detail = strings.Join(details, "; ")
		}
	}
}

func parseStatus(s string) core.CheckStatus {
	switch s {
	case "pass":
		return core.CheckPass
	case "fail":
		return core.CheckFail
	case "error":
		return core.CheckError
	default:
		return core.CheckIncomplete
	}
}

// cmp compares with a small epsilon on equality so exact-fraction
// assertions (compliance == 1) survive float arithmetic.
func cmp(got float64, op string, want float64) bool {
	const eps = 1e-9
	switch op {
	case "==":
		return got >= want-eps && got <= want+eps
	case "!=":
		return got < want-eps || got > want+eps
	case "<":
		return got < want
	case "<=":
		return got <= want+eps
	case ">":
		return got > want
	case ">=":
		return got >= want-eps
	}
	return false
}
