// Command fleetaudit audits a simulated fleet of hardened Ubuntu hosts
// through the work-stealing fleet coordinator: N hosts' STIG catalogues
// are pulled off affinity-seeded shard queues (idle shards steal from
// loaded ones; -sched static restores pure affinity bucketing), each
// shard running its hosts' checks on an engine worker pool. Drifted,
// faulty and unreachable hosts exercise the degradation paths; the
// incremental mode demonstrates the version-keyed audit cache, -dedup
// the cross-host check memo, and -cache-file persists the incremental
// cache across invocations.
//
// The sweep's spans can stay resident instead of (or as well as)
// streaming to JSONL: -trace-query attaches the embeddable trace store
// (internal/telemetry/store) to the tracer and runs a TraceQL-ish
// expression against everything the sweep recorded — filter by span
// name/outcome/duration/tags, `slowest K`, `p50/p95/p99 by KEY`,
// `count by KEY`, `traces K` (full trees). With -vclock, -shards 1 and
// -workers 1 the whole trace — IDs, durations, query output — is
// deterministic for a given seed. -timeout arms the engine's
// per-attempt deadline (with -faults, injected slowdowns sleep 4x the
// deadline, so seeded checks time out deterministically).
//
// Usage:
//
//	fleetaudit [-hosts N] [-shards N] [-workers N] [-drift N] [-down N]
//	           [-faults] [-retries N] [-timeout D] [-seed N]
//	           [-incremental] [-enforce] [-sched steal|static] [-dedup]
//	           [-cache-file PATH] [-telemetry] [-trace PATH] [-metrics]
//	           [-trace-query EXPR] [-vclock] [-trace-capacity N]
//	           [-trace-keep-ok N]
//	           [-cpuprofile PATH] [-memprofile PATH]
//
// Exit status: 0 fleet fully compliant, 1 violations or errors open,
// 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/fleet"
	"veridevops/internal/host"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
	"veridevops/internal/telemetry/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hosts := fs.Int("hosts", 16, "fleet size")
	shards := fs.Int("shards", 4, "shard goroutines (host-level parallelism)")
	workers := fs.Int("workers", 4, "engine workers per catalogue run inside a shard")
	drift := fs.Int("drift", 4, "hosts drifted from the hardened baseline (3 mutations each)")
	down := fs.Int("down", 0, "hosts marked unreachable (degrade to ERROR verdicts)")
	faults := fs.Bool("faults", false, "inject seeded panics/transients/slowdowns into every check")
	retries := fs.Int("retries", 1, "attempt budget per check (recovers injected transients)")
	timeout := fs.Duration("timeout", 0, "per-attempt deadline (0 disables; with -faults, slowdowns sleep 4x this)")
	seed := fs.Int64("seed", 1, "seed for drift and fault injection")
	incremental := fs.Bool("incremental", false, "after the full sweep, drift one host and re-sweep incrementally")
	enforce := fs.Bool("enforce", false, "remediate failing requirements (CheckAndEnforce)")
	sched := fs.String("sched", "steal", "host scheduling: steal (work-stealing, default) or static (pure affinity)")
	dedup := fs.Bool("dedup", false, "dedup identical checks across hosts within a sweep (audit-only)")
	cacheFile := fs.String("cache-file", "", "persist the incremental cache here across invocations")
	showTelemetry := fs.Bool("telemetry", false, "print per-shard and per-host engine telemetry")
	tracePath := fs.String("trace", "", "write a JSONL span trace (sweep/shard/host/check/attempt) to this file")
	showMetrics := fs.Bool("metrics", false, "collect and print the telemetry metrics registry after the run")
	traceQuery := fs.String("trace-query", "", "keep the sweep's spans in the trace store and run this query (see internal/telemetry/store)")
	vclock := fs.Bool("vclock", false, "stamp spans on a deterministic virtual clock (1us per reading)")
	traceCap := fs.Int("trace-capacity", 0, "trace store span capacity (default 262144)")
	traceKeepOK := fs.Int("trace-keep-ok", 0, "tail-sample: keep 1 in N healthy traces (error traces always kept; 0/1 keeps all)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hosts < 1 || *drift < 0 || *down < 0 || *retries < 1 {
		fmt.Fprintln(stderr, "fleetaudit: -hosts must be >= 1 and -drift/-down/-retries non-negative")
		return 2
	}
	if *timeout < 0 || *traceCap < 0 || *traceKeepOK < 0 {
		fmt.Fprintln(stderr, "fleetaudit: -timeout/-trace-capacity/-trace-keep-ok must be non-negative")
		return 2
	}
	if *drift > *hosts || *down > *hosts {
		fmt.Fprintln(stderr, "fleetaudit: -drift and -down cannot exceed -hosts")
		return 2
	}
	scheduling := fleet.ScheduleWorkStealing
	switch *sched {
	case "steal":
	case "static":
		scheduling = fleet.ScheduleStatic
	default:
		fmt.Fprintln(stderr, "fleetaudit: -sched must be steal or static")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			}
		}()
	}

	// -trace streams spans to the file; -trace-query keeps them resident
	// in the store instead (both compose); bare -metrics still builds an
	// aggregate-only tracer so the span-name breakdown can print.
	var tracer *telemetry.Tracer
	var traceFile *os.File
	var spanStore *store.Store
	var tracerOpts []telemetry.Option
	if *vclock {
		tracerOpts = append(tracerOpts, telemetry.WithClock(telemetry.NewVirtualClock(time.Microsecond)))
	}
	if *traceQuery != "" {
		spanStore = store.New(store.Config{
			Capacity:      *traceCap,
			TailKeepOK1In: *traceKeepOK,
		})
		tracerOpts = append(tracerOpts, telemetry.WithSink(spanStore))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			return 2
		}
		traceFile = f
		tracer = telemetry.New(f, tracerOpts...)
	} else if *showMetrics || spanStore != nil {
		tracer = telemetry.New(nil, tracerOpts...)
	}
	var mets *telemetry.Metrics
	if *showMetrics {
		mets = telemetry.NewMetrics()
	}

	targets, machines := fleet.LinuxFleet(*hosts)
	rng := rand.New(rand.NewSource(*seed))
	for _, i := range rng.Perm(*hosts)[:*drift] {
		host.DriftLinux(machines[i], 3, rng)
	}
	for i := 0; i < *down; i++ {
		machines[i].SetUnreachable(true)
	}
	if *faults {
		// With a deadline armed, slowdowns sleep 4x the deadline so the
		// seeded slow checks become deterministic timeouts.
		slowDelay := 100 * time.Microsecond
		if *timeout > 0 {
			slowDelay = 4 * *timeout
		}
		plan := engine.FaultPlan{
			PanicProb: 0.04, TransientProb: 0.30,
			SlowProb: 0.10, SlowDelay: slowDelay,
		}
		for i := range targets {
			targets[i] = fleet.WithFaults(targets[i], *seed+int64(i)*100, plan)
		}
	}

	opts := fleet.Options{
		Mode:       core.CheckOnly,
		Shards:     *shards,
		Workers:    *workers,
		Checks:     engine.Policy{MaxAttempts: *retries, AttemptTimeout: *timeout},
		Scheduling: scheduling,
		Dedup:      *dedup,
		Trace:      tracer,
		Metrics:    mets,
	}
	if *enforce {
		opts.Mode = core.CheckAndEnforce
	}

	coord := fleet.NewCoordinator()
	if *cacheFile != "" {
		if err := coord.LoadCache(*cacheFile); err != nil {
			if os.IsNotExist(err) {
				fmt.Fprintf(stdout, "cache file %s absent, starting cold\n", *cacheFile)
			} else {
				fmt.Fprintf(stderr, "fleetaudit: cache discarded, starting cold: %v\n", err)
			}
		} else {
			fmt.Fprintf(stdout, "resumed %d cached hosts from %s\n", coord.CachedHosts(), *cacheFile)
			opts.Incremental = true
		}
	}
	rep, st := coord.Sweep(targets, opts)
	printSweep(stdout, "full sweep", rep, st, *showTelemetry)

	if *incremental {
		// Down hosts are machines[:down] and cannot be drifted, so the
		// pick is drawn from the reachable ones (the draw is unchanged
		// with -down 0).
		title := "incremental re-sweep (1 host drifted)"
		if reachable := *hosts - *down; reachable > 0 {
			host.DriftLinux(machines[*down+rng.Intn(reachable)], 3, rng)
		} else {
			fmt.Fprintln(stdout, "every host is down: incremental re-sweep without drift")
			title = "incremental re-sweep (no host drifted)"
		}
		opts.Incremental = true
		rep, st = coord.Sweep(targets, opts)
		fmt.Fprintln(stdout)
		printSweep(stdout, title, rep, st, *showTelemetry)
	}

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fmt.Fprintf(stderr, "fleetaudit: flush trace: %v\n", err)
			return 2
		}
		if traceFile != nil {
			traceFile.Close()
			fmt.Fprintf(stdout, "wrote span trace to %s\n", *tracePath)
		}
		fmt.Fprintln(stdout)
		report.SpanTable("where the time went (top 10 span names)", tracer.Breakdown(), 10).WriteText(stdout)
	}
	if mets != nil {
		fmt.Fprintln(stdout)
		mets.Table("metrics").WriteText(stdout)
	}
	if spanStore != nil {
		spanStore.Flush()
		res, err := spanStore.Query(*traceQuery)
		if err != nil {
			fmt.Fprintf(stderr, "fleetaudit: trace query: %v\n", err)
			return 2
		}
		sst := spanStore.Stats()
		fmt.Fprintf(stdout, "\ntrace store: %d spans resident from %d traces (%d offered, %d sampled out, %d evicted)\n",
			sst.Resident, sst.Traces, sst.Offered, sst.TailDropped, sst.Evicted)
		res.WriteText(stdout)
	}

	if *cacheFile != "" {
		if err := coord.SaveCache(*cacheFile); err != nil {
			fmt.Fprintf(stderr, "fleetaudit: save cache: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "saved %d cached hosts to %s\n", coord.CachedHosts(), *cacheFile)
		}
	}

	pass, fail, inc := rep.Counts()
	if fail+inc > 0 {
		fmt.Fprintf(stdout, "fleet non-compliant: %d pass, %d fail, %d incomplete\n", pass, fail, inc)
		return 1
	}
	fmt.Fprintf(stdout, "fleet compliant: %d requirements pass on %d hosts\n", pass, st.Hosts)
	return 0
}

func printSweep(w io.Writer, title string, rep fleet.FleetReport, st fleet.FleetStats, telemetry bool) {
	t := report.New(title, "host", "shard", "cached", "degraded", "pass", "fail", "incomplete", "compliance")
	for _, hr := range rep.Hosts {
		pass, fail, inc := hr.Report.Counts()
		t.AddRow(hr.Target, hr.Shard, hr.FromCache, hr.Degraded, pass, fail, inc, hr.Report.Compliance())
	}
	t.Note = st.Summary()
	t.WriteText(w)
	if telemetry {
		st.ShardTable(title + ": shards").WriteText(w)
		h := report.New(title+": hosts", "host", "shard", "requirements", "errors", "cached", "stolen", "degraded", "wall-ms")
		for _, hr := range rep.Hosts {
			// A cached row ran nothing: 0 errors, 0 ms.
			var run core.RunStats
			if !hr.FromCache {
				run = *hr.Stats
			}
			h.AddRow(hr.Target, hr.Shard, len(hr.Report.Results), run.Errors, hr.FromCache,
				hr.Stolen, hr.Degraded, report.Millis(run.Wall))
		}
		h.Note = st.Summary()
		h.WriteText(w)
	}
}
