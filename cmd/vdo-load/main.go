// Command vdo-load is the mega-fleet load harness: it synthesizes a
// parameterized fleet (10k–1M hosts) from a topology spec, replays a
// seeded churn stream — package upgrades/downgrades, compliance drift,
// service flapping, config edits, hosts joining/leaving/unreachable —
// through a token-bucket rate limiter while incremental sweeps run on
// the fleet coordinator, and reports change→verdict detection latency
// percentiles plus replay throughput. Time is virtual: a fixed seed
// reproduces the event stream and the latency distribution exactly.
//
// With -push the replay feeds a fleet.Streamer instead of batch sweeps:
// every churn event marks its host dirty through the event-log
// subscription and a flush every -window re-evaluates only the checks
// the dependency index maps to the dirty keys, with a fallback sweep
// still running every -sweep-every. The same seed admits the identical
// event stream in both modes, so sweep vs push is directly comparable.
//
// Usage:
//
//	vdo-load [-hosts N] [-topology PATH] [-rate EV_PER_SEC] [-burst N]
//	         [-duration D] [-sweep-every D] [-shards N] [-workers N]
//	         [-seed N] [-metrics] [-push] [-window D] [-assert-p99 D]
//	         [-slowest N]
//
// Exit status: 0 replay completed, 1 -assert-p99 violated, 2 usage or
// I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"veridevops/internal/loadgen"
	"veridevops/internal/telemetry"
	"veridevops/internal/telemetry/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdo-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hosts := fs.Int("hosts", 10_000, "synthesized fleet size")
	topoPath := fs.String("topology", "", "topology spec JSON (default: built-in three-tier spec)")
	rate := fs.Float64("rate", 1000, "offered churn load, events per virtual second")
	burst := fs.Int("burst", 16, "token-bucket burst capacity")
	duration := fs.Duration("duration", 10*time.Second, "virtual replay duration")
	sweepEvery := fs.Duration("sweep-every", 500*time.Millisecond, "virtual interval between incremental sweeps")
	shards := fs.Int("shards", 8, "shard goroutines per sweep (host-level parallelism)")
	workers := fs.Int("workers", 2, "engine workers per catalogue run inside a shard")
	seed := fs.Int64("seed", 1, "seed for synthesis and churn")
	showMetrics := fs.Bool("metrics", false, "print the telemetry metrics registry after the replay")
	push := fs.Bool("push", false, "stream deltas through the dependency index instead of batch sweeps")
	window := fs.Duration("window", 50*time.Millisecond, "virtual dirty-key coalescing window between -push flushes")
	slowest := fs.Int("slowest", 0, "keep spans in the trace store and print the N slowest host audits (push: deltas) after the replay")
	assertP99 := fs.Duration("assert-p99", 0, "exit 1 unless detection p99 is strictly below this bound (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hosts < 1 || *rate <= 0 || *duration <= 0 || *sweepEvery <= 0 {
		fmt.Fprintln(stderr, "vdo-load: -hosts must be >= 1 and -rate/-duration/-sweep-every positive")
		return 2
	}
	if *push && *window <= 0 {
		fmt.Fprintln(stderr, "vdo-load: -window must be positive in -push mode")
		return 2
	}

	top := loadgen.DefaultTopology()
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			fmt.Fprintf(stderr, "vdo-load: %v\n", err)
			return 2
		}
		top, err = loadgen.ParseTopology(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "vdo-load: %v\n", err)
			return 2
		}
	}

	var mets *telemetry.Metrics
	if *showMetrics {
		mets = telemetry.NewMetrics()
	}
	var spanStore *store.Store
	var tracer *telemetry.Tracer
	if *slowest > 0 {
		spanStore = store.New(store.Config{})
		tracer = telemetry.New(nil, telemetry.WithSink(spanStore))
	}
	fmt.Fprintf(stdout, "synthesizing %d hosts (seed %d)...\n", *hosts, *seed)
	st, err := replay(top, *hosts, *seed, loadgen.DriverOptions{
		Duration:   *duration,
		SweepEvery: *sweepEvery,
		Push:       *push,
		Window:     *window,
		Rate:       *rate,
		Burst:      *burst,
		Shards:     *shards,
		Workers:    *workers,
		Metrics:    mets,
		Trace:      tracer,
	})
	if err != nil {
		fmt.Fprintf(stderr, "vdo-load: %v\n", err)
		return 2
	}

	st.Table(fmt.Sprintf("load replay (%s): %d hosts, %v virtual at %.0f ev/s (seed %d)",
		st.Mode, st.Hosts, st.VirtualDuration, st.OfferedRate, *seed)).WriteText(stdout)

	if mets != nil {
		fmt.Fprintln(stdout)
		mets.Table("metrics").WriteText(stdout)
	}
	if spanStore != nil {
		tracer.Flush()
		spanStore.Flush()
		name := "host"
		if *push {
			name = "delta" // push-mode flushes root a trace per delta, not per host audit
		}
		res, err := spanStore.Query(fmt.Sprintf("name=%s | slowest %d", name, *slowest))
		if err != nil {
			fmt.Fprintf(stderr, "vdo-load: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout)
		res.WriteText(stdout)
	}
	if *assertP99 > 0 && st.Detect.P99 >= *assertP99 {
		fmt.Fprintf(stderr, "vdo-load: detection p99 %v not below asserted bound %v\n", st.Detect.P99, *assertP99)
		return 1
	}
	return 0
}

// replay synthesizes a fresh fleet and churn engine and runs one load
// replay; synthesis and churn draw adjacent seeds so one -seed pins the
// whole experiment.
func replay(top loadgen.Topology, hosts int, seed int64, opts loadgen.DriverOptions) (loadgen.LoadStats, error) {
	f, err := loadgen.Synthesize(top, hosts, seed)
	if err != nil {
		return loadgen.LoadStats{}, err
	}
	c := loadgen.NewChurn(f, top.Mix, seed+1)
	return loadgen.Run(f, c, opts)
}
