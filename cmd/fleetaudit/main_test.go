package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanFleetIsCompliant(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "fleet compliant: 32 requirements pass on 4 hosts") {
		t.Errorf("missing compliance line:\n%s", out)
	}
}

func TestDriftedFleetExitsNonZero(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "2", "-seed", "3")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "fleet non-compliant") {
		t.Errorf("missing non-compliance line:\n%s", out)
	}
}

func TestEnforceRemediatesDrift(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "3", "-enforce")
	if code != 0 {
		t.Fatalf("enforced fleet must end compliant, exit = %d\n%s", code, out)
	}
}

func TestUnreachableHostDegrades(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-down", "1")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "true") || !strings.Contains(out, "degraded") {
		t.Errorf("degraded host not visible:\n%s", out)
	}
}

func TestIncrementalReSweepShowsCacheHits(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "8", "-shards", "4", "-drift", "0", "-incremental", "-telemetry")
	if code != 1 { // the injected drift leaves a violation open
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "incremental re-sweep") {
		t.Fatalf("missing incremental section:\n%s", out)
	}
	if !strings.Contains(out, "7 hosts cached") {
		t.Errorf("expected 7 cached hosts in summary:\n%s", out)
	}
	if !strings.Contains(out, "shards") || !strings.Contains(out, "wall-ms") {
		t.Errorf("telemetry tables missing:\n%s", out)
	}
}

// TestIncrementalDriftSkipsDownHosts: the incremental step drifts a
// reachable host, never one of the -down ones (drifting an unreachable
// host panics), and with every host down it re-sweeps without drift.
func TestIncrementalDriftSkipsDownHosts(t *testing.T) {
	for _, seed := range []string{"2", "7", "8"} {
		code, out, errb := runCapture(t, "-hosts", "4", "-down", "1", "-drift", "0", "-incremental", "-seed", seed)
		if code != 1 {
			t.Fatalf("seed %s: exit = %d\nstdout:\n%s\nstderr:\n%s", seed, code, out, errb)
		}
		if !strings.Contains(out, "incremental re-sweep (1 host drifted)") {
			t.Errorf("seed %s: missing incremental section:\n%s", seed, out)
		}
	}
	code, out, _ := runCapture(t, "-hosts", "2", "-down", "2", "-drift", "0", "-incremental")
	if code != 1 {
		t.Fatalf("all down: exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "every host is down") {
		t.Errorf("all down: missing skip line:\n%s", out)
	}
}

func TestFaultInjectionWithRetriesStillCompletes(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-faults", "-retries", "6")
	// Retries recover transients; rare residual panics may leave errors,
	// but every requirement must have a verdict either way.
	if code != 0 && code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "32 requirements") {
		t.Errorf("audit did not cover the whole fleet:\n%s", out)
	}
}

func TestCacheFilePersistsAcrossInvocations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	// First invocation: cold start, saves the cache.
	code, out, _ := runCapture(t, "-hosts", "6", "-shards", "3", "-drift", "0", "-cache-file", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "starting cold") || !strings.Contains(out, "saved 6 cached hosts") {
		t.Errorf("first run must start cold and save:\n%s", out)
	}
	// Second invocation resumes: every host replays from the file.
	code, out, _ = runCapture(t, "-hosts", "6", "-shards", "3", "-drift", "0", "-cache-file", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "resumed 6 cached hosts") {
		t.Errorf("second run must resume from the cache file:\n%s", out)
	}
	if !strings.Contains(out, "6 hosts cached, hit rate 100%") {
		t.Errorf("resumed sweep must be all cache hits:\n%s", out)
	}
}

func TestCorruptCacheFileFallsBackCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-cache-file", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(errOut, "cache discarded") {
		t.Errorf("corrupt cache must be reported:\n%s", errOut)
	}
	if !strings.Contains(out, "saved 4 cached hosts") {
		t.Errorf("cold fallback must still audit and re-save:\n%s", out)
	}
}

func TestDedupFlagReportsDedupTraffic(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "8", "-shards", "4", "-drift", "0", "-dedup")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "dedup 88%") {
		t.Errorf("8 identical hosts must dedup 7/8 of checks:\n%s", out)
	}
}

func TestSchedFlagValidated(t *testing.T) {
	if code, _, _ := runCapture(t, "-sched", "nonsense"); code != 2 {
		t.Error("invalid -sched must be a usage error")
	}
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-sched", "static")
	if code != 0 {
		t.Fatalf("static scheduling run failed: %d\n%s", code, out)
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-hosts", "0"},
		{"-drift", "9", "-hosts", "4"},
		{"-down", "9", "-hosts", "4"},
		{"-retries", "0"},
		{"-nonsense"},
	} {
		if code, _, _ := runCapture(t, args...); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}
