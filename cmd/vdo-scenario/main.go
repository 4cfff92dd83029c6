// Command vdo-scenario executes declarative timed incident scenarios
// against the fleet stack and fuzzes the mutation grammar for stale
// push-evaluated verdicts.
//
// In run mode it loads one spec file or every *.json under a directory,
// executes each on the virtual clock through push evaluation, checks
// each run's final verdicts against a fresh full sweep of its final
// fleet, and prints the structured report: per-step provenance,
// guarded-assertion verdicts, any divergence from that sweep and the
// final compliance state.
//
// In fuzz mode (-fuzz N) it generates N random scenarios from the
// mutation grammar, runs each once, and shrinks the first failure (a
// divergence, a failed step) to a minimal reproducer.
//
// Usage:
//
//	vdo-scenario [-run PATH] [-shards N] [-workers N]
//	             [-verify-reads] [-v] [-slowest N]
//	vdo-scenario -fuzz N [-seed N] [-shards N] [-workers N]
//
// Exit status: 0 all scenarios passed (or fuzz found no divergence),
// 1 a scenario failed or the fuzzer found a divergence, 2 usage or I/O
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"veridevops/internal/scenario"
	"veridevops/internal/telemetry"
	"veridevops/internal/telemetry/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdo-scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runPath := fs.String("run", "examples/scenarios", "scenario spec file, or directory of *.json specs")
	fuzzN := fs.Int("fuzz", 0, "fuzz N generated scenarios, each checked against a fresh sweep, instead of running specs")
	seed := fs.Int64("seed", 1, "base seed for -fuzz generation")
	shards := fs.Int("shards", 4, "shard goroutines per evaluation pass")
	workers := fs.Int("workers", 1, "engine workers per catalogue run inside a shard")
	verifyReads := fs.Bool("verify-reads", false, "run the dynamic declared-reads oracle over each fleet's final catalogues; undeclared reads fail the run")
	verbose := fs.Bool("v", false, "print the full virtual-time schedule of each run")
	slowest := fs.Int("slowest", 0, "keep spans in the trace store and print the N slowest host deltas")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := scenario.Options{Shards: *shards, Workers: *workers, VerifyReads: *verifyReads}
	var spanStore *store.Store
	if *slowest > 0 {
		spanStore = store.New(store.Config{})
		opts.Trace = telemetry.New(nil, telemetry.WithSink(spanStore))
	}

	if *fuzzN > 0 {
		fr := scenario.Fuzz(*fuzzN, *seed, opts)
		fmt.Fprintln(stdout, fr)
		if fr.Failed() {
			return 1
		}
		return 0
	}

	paths, err := specPaths(*runPath)
	if err != nil {
		fmt.Fprintf(stderr, "vdo-scenario: %v\n", err)
		return 2
	}
	failed := 0
	for _, p := range paths {
		specFile, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(stderr, "vdo-scenario: %v\n", err)
			return 2
		}
		sp, err := scenario.Parse(specFile)
		specFile.Close()
		if err != nil {
			fmt.Fprintf(stderr, "vdo-scenario: %s: %v\n", p, err)
			return 2
		}
		res, err := scenario.Run(sp, opts)
		if err != nil {
			fmt.Fprintf(stderr, "vdo-scenario: %s: %v\n", p, err)
			return 2
		}
		fmt.Fprint(stdout, res.Report())
		if *verbose {
			for _, line := range res.Schedule {
				fmt.Fprintf(stdout, "    %s\n", line)
			}
		}
		if res.Failed() {
			failed++
		}
	}
	fmt.Fprintf(stdout, "%d scenario(s), %d failure(s)\n", len(paths), failed)

	if spanStore != nil {
		opts.Trace.Flush()
		spanStore.Flush()
		res, err := spanStore.Query(fmt.Sprintf("name=delta | slowest %d", *slowest))
		if err != nil {
			fmt.Fprintf(stderr, "vdo-scenario: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout)
		res.WriteText(stdout)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// specPaths expands one path into the sorted list of spec files it
// names: the file itself, or every *.json immediately under a directory.
func specPaths(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, filepath.Join(path, e.Name()))
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("no *.json scenario specs under %s", path)
	}
	return out, nil
}
