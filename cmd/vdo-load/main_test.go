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

func TestSmallReplay(t *testing.T) {
	code, out, errb := runCapture(t,
		"-hosts", "200", "-duration", "2s", "-sweep-every", "250ms",
		"-rate", "100", "-shards", "4", "-workers", "1", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	for _, want := range []string{
		"synthesizing 200 hosts",
		"load replay (sweep):",
		"detect p50 / p95 / p99 ms",
		"sweeps",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReplayDeterministicAcrossRuns(t *testing.T) {
	args := []string{"-hosts", "150", "-duration", "2s", "-sweep-every", "200ms",
		"-rate", "80", "-shards", "4", "-workers", "1", "-seed", "9"}
	_, a, _ := runCapture(t, args...)
	_, b, _ := runCapture(t, args...)
	// Everything above the wall-clock rows is seed-determined.
	cut := func(s string) string {
		i := strings.Index(s, "replay wall ms")
		if i < 0 {
			t.Fatalf("output missing wall row:\n%s", s)
		}
		return s[:i]
	}
	if cut(a) != cut(b) {
		t.Errorf("identical seeds produced different virtual results:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestReplayWithMetrics(t *testing.T) {
	code, out, _ := runCapture(t,
		"-hosts", "60", "-duration", "1s", "-sweep-every", "250ms",
		"-rate", "50", "-shards", "2", "-workers", "1", "-metrics")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "load.detect") || !strings.Contains(out, "load.events") {
		t.Errorf("metrics table missing load.* entries:\n%s", out)
	}
}

func TestCustomTopologyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "top.json")
	spec := `{"classes": [{"name": "tiny", "weight": 1}], "mix": {"config_edit": 1}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCapture(t,
		"-topology", path, "-hosts", "20", "-duration", "1s",
		"-sweep-every", "250ms", "-rate", "20", "-shards", "2", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	// The tiny class has no config distribution, so every config-edit
	// draw either hits the 1-in-8 drift branch or is skipped — the
	// replay still completes.
	if !strings.Contains(out, "load replay (sweep):") {
		t.Errorf("replay did not run:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad flag":      {"-definitely-not-a-flag"},
		"zero hosts":    {"-hosts", "0"},
		"zero rate":     {"-rate", "0"},
		"zero duration": {"-duration", "0s"},
		"missing topo":  {"-topology", filepath.Join(t.TempDir(), "absent.json")},
		// A sweep interval longer than the replay would sweep nothing.
		"sweep past end": {"-hosts", "50", "-duration", "100ms", "-sweep-every", "500ms"},
	} {
		if code, _, _ := runCapture(t, args...); code != 2 {
			t.Errorf("%s: exit = %d, want 2", name, code)
		}
	}
	// An invalid spec file is also a usage error.
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"classes": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCapture(t, "-topology", path); code != 2 {
		t.Errorf("invalid topology: exit != 2")
	}
}

func TestPushReplayAndAssertP99(t *testing.T) {
	args := []string{"-hosts", "100", "-duration", "2s", "-sweep-every", "500ms",
		"-push", "-window", "50ms", "-rate", "100", "-shards", "4", "-workers", "1",
		"-seed", "3"}
	code, out, errb := runCapture(t, append(args, "-assert-p99", "500ms")...)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	for _, want := range []string{
		"load replay (push):",
		"flush window",
		"checks per event",
		"flushes / delta hosts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// An impossible bound trips the assertion exit code.
	code, _, errb = runCapture(t, append(args, "-assert-p99", "1ns")...)
	if code != 1 || !strings.Contains(errb, "not below asserted bound") {
		t.Errorf("impossible bound: exit = %d, stderr %q; want 1", code, errb)
	}
}

func TestPushUsageErrors(t *testing.T) {
	if code, _, _ := runCapture(t, "-push", "-window", "0s"); code != 2 {
		t.Error("zero window in push mode accepted")
	}
	// A window longer than the replay would flush nothing, and the p99
	// gate would pass on zero samples.
	if code, _, _ := runCapture(t, "-hosts", "50", "-duration", "1s", "-push", "-window", "2s", "-assert-p99", "1ns"); code != 2 {
		t.Error("push window longer than the duration accepted")
	}
}
