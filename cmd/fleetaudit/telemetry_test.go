package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"veridevops/internal/telemetry"
)

// TestTraceFlagEmitsFullSpanTree: -trace must write parseable JSONL whose
// reassembled tree covers all five levels — sweep, shard, host, check,
// attempt — for every host in the fleet.
func TestTraceFlagEmitsFullSpanTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errb := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-trace", path)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "wrote span trace to "+path) {
		t.Errorf("missing trace confirmation:\n%s", out)
	}
	if !strings.Contains(out, "where the time went") {
		t.Errorf("missing span breakdown table:\n%s", out)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace file is not valid JSONL: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	if len(roots) != 1 || roots[0].Name != "sweep" {
		t.Fatalf("roots = %+v, want one sweep span", roots)
	}
	counts := map[string]int{}
	roots[0].Walk(func(n *telemetry.Node) { counts[n.Name]++ })
	for _, level := range []string{"sweep", "shard", "host", "check", "attempt"} {
		if counts[level] == 0 {
			t.Errorf("no %q spans in trace (counts: %v)", level, counts)
		}
	}
	if counts["host"] != 4 {
		t.Errorf("host spans = %d, want 4", counts["host"])
	}
	if counts["check"] != 32 {
		t.Errorf("check spans = %d, want 32 (4 hosts x 8 requirements)", counts["check"])
	}
}

// TestMetricsFlagPrintsRegistry: bare -metrics collects through an
// aggregate-only tracer and prints both the span and metric tables.
func TestMetricsFlagPrintsRegistry(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-metrics")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"where the time went", "== metrics ==", "engine.checks", "fleet.sweep_wall", "fleet.utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("metrics output leaks non-finite values:\n%s", out)
	}
}

// TestTracedIncrementalSweepStaysFinite: the fully-cached shape through
// the real CLI — prime via -cache-file, re-run 100% cached with tracing
// and metrics on — must render finite stats.
func TestTracedIncrementalSweepStaysFinite(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache.json")
	code, _, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-cache-file", cache)
	if code != 0 {
		t.Fatalf("prime exit = %d", code)
	}
	code, out, errb := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0",
		"-cache-file", cache, "-metrics", "-telemetry")
	if code != 0 {
		t.Fatalf("cached exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "resumed 4 cached hosts") {
		t.Fatalf("sweep did not resume from cache:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("fully-cached traced sweep leaks non-finite values:\n%s", out)
	}
}
