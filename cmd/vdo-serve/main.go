// Command vdo-serve is the streaming compliance daemon: it synthesizes
// a fleet and keeps a live compliance view while seeded churn mutates
// the fleet in real time. It runs vdo-load's push-mode replay
// (loadgen.Replay) on the real clock instead of a virtual one: every
// -window one tick admits the churn that fell due, and the
// fleet.Streamer flushes — coalescing the state keys dirtied since the
// last flush and re-running only the checks the dependency index maps
// to them. The flush is the tick's only evaluation. Violation episodes
// print as ALARM/REPAIR lines as they open and close, each batch
// followed by a status line with the live compliance.
//
// SIGINT/SIGTERM (or -duration elapsing) drains a final tick and prints
// the session summary: vdo-load's replay table, with detection latency
// on the real clock, plus the final compliance view.
//
// Usage:
//
//	vdo-serve [-hosts N] [-topology PATH] [-rate EV_PER_SEC] [-burst N]
//	          [-window D] [-duration D] [-shards N] [-workers N]
//	          [-seed N] [-quiet] [-metrics] [-slowest N]
//
// -duration 0 runs until a signal arrives. Exit status: 0 clean
// shutdown, 2 usage or I/O error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"veridevops/internal/fleet"
	"veridevops/internal/loadgen"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
	"veridevops/internal/telemetry/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdo-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hosts := fs.Int("hosts", 1000, "synthesized fleet size")
	topoPath := fs.String("topology", "", "topology spec JSON (default: built-in three-tier spec)")
	rate := fs.Float64("rate", 100, "offered churn load, events per second")
	burst := fs.Int("burst", 16, "token-bucket burst capacity")
	window := fs.Duration("window", 50*time.Millisecond, "dirty-key coalescing window between flushes")
	duration := fs.Duration("duration", 0, "stop after this long (0: run until SIGINT/SIGTERM)")
	shards := fs.Int("shards", 8, "dirty hosts evaluated concurrently per flush")
	workers := fs.Int("workers", 2, "engine workers per catalogue run inside a shard")
	seed := fs.Int64("seed", 1, "seed for synthesis and churn")
	quiet := fs.Bool("quiet", false, "suppress ALARM/REPAIR and status lines; summary only")
	showMetrics := fs.Bool("metrics", false, "print the telemetry metrics registry in the summary")
	slowest := fs.Int("slowest", 0, "keep spans in the trace store and print the N slowest delta evaluations in the summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hosts < 1 || *rate <= 0 || *window <= 0 || *duration < 0 {
		fmt.Fprintln(stderr, "vdo-serve: -hosts must be >= 1, -rate/-window positive, -duration non-negative")
		return 2
	}

	top := loadgen.DefaultTopology()
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
			return 2
		}
		top, err = loadgen.ParseTopology(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
			return 2
		}
	}

	f, err := loadgen.Synthesize(top, *hosts, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
		return 2
	}

	var mets *telemetry.Metrics
	if *showMetrics {
		mets = telemetry.NewMetrics()
	}
	var spanStore *store.Store
	var tracer *telemetry.Tracer
	if *slowest > 0 {
		// Bound the resident window so a long-lived daemon keeps only the
		// recent past: error traces always survive tail sampling, healthy
		// deltas 1 in 4.
		spanStore = store.New(store.Config{TailKeepOK1In: 4})
		tracer = telemetry.New(nil, telemetry.WithSink(spanStore))
	}

	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	fmt.Fprintf(stdout, "vdo-serve: %d hosts, window %v, %.0f ev/s (seed %d)\n",
		*hosts, *window, *rate, *seed)
	// The replay primes the verdict baseline before churn starts; its
	// counters leave the baseline out.
	r, err := loadgen.NewReplay(f, loadgen.NewChurn(f, top.Mix, *seed+1), loadgen.DriverOptions{
		Rate:    *rate,
		Burst:   *burst,
		Shards:  *shards,
		Workers: *workers,
		Push:    true,
		Window:  *window,
		Metrics: mets,
		Trace:   tracer,
	})
	if err != nil {
		fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
		return 2
	}
	s := r.Streamer()
	if !*quiet {
		p, fl, inc := s.Counts()
		fmt.Fprintf(stdout, "baseline: compliance %.4f (%d pass / %d fail / %d incomplete)\n",
			s.Compliance(), p, fl, inc)
	}
	show := func(fr fleet.FlushResult) {
		if *quiet || (len(fr.Alarms) == 0 && fr.Repairs == 0) {
			return
		}
		for _, a := range fr.Alarms {
			fmt.Fprintf(stdout, "ALARM  t=%-8v %s %s %v\n", a.At.Round(time.Millisecond), a.Host, a.Finding, a.Status)
		}
		if fr.Repairs > 0 {
			fmt.Fprintf(stdout, "REPAIR t=%-8v %d episode(s) closed\n", fr.At.Round(time.Millisecond), fr.Repairs)
		}
		p, fl, inc := s.Counts()
		fmt.Fprintf(stdout, "status t=%-8v hosts=%d compliance=%.4f (%d/%d/%d)\n",
			fr.At.Round(time.Millisecond), s.Hosts(), s.Compliance(), p, fl, inc)
	}

	// The daemon ticks the loadgen replay on the real clock: every tick
	// admits the churn due by then and flushes.
	start := time.Now()
	//lint:ignore clockuse the serve loop is driven by the real clock; determinism is the loadgen driver's job
	tick := time.NewTicker(*window)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case <-ctx.Done():
			done = true
		case now := <-tick.C:
			show(r.Tick(now.Sub(start)))
		}
	}
	// Drain: one final tick so nothing dirty is dropped on shutdown.
	show(r.Tick(time.Since(start)))

	st := r.Stats()
	t := st.Table(fmt.Sprintf("vdo-serve session: %d hosts, uptime %v",
		st.Hosts, time.Since(start).Round(time.Millisecond)))
	// The replay table plus two facts of the live view: the final
	// verdicts, and how much of the watched catalogues the dependency
	// index localizes.
	p, fl, inc := s.Counts()
	t.AddRow("final compliance", fmt.Sprintf("%.4f (%d pass / %d fail / %d incomplete)",
		s.Compliance(), p, fl, inc))
	ss := s.Stats()
	t.AddRow("read localization", fmt.Sprintf("%s (%d indexed / %d unindexed checks)",
		report.Percent(ss.ReadLocalization()), ss.IndexedChecks, ss.UnindexedChecks))
	t.WriteText(stdout)
	if mets != nil {
		fmt.Fprintln(stdout)
		mets.Table("metrics").WriteText(stdout)
	}
	if spanStore != nil {
		tracer.Flush()
		spanStore.Flush()
		res, err := spanStore.Query(fmt.Sprintf("name=delta | slowest %d", *slowest))
		if err != nil {
			fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout)
		res.WriteText(stdout)
	}
	return 0
}
