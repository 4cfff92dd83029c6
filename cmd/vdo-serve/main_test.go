package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func runCapture(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestServeRunsForDuration(t *testing.T) {
	code, out, errb := runCapture(t, context.Background(),
		"-hosts", "100", "-duration", "300ms", "-window", "25ms",
		"-rate", "200", "-shards", "4", "-workers", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	for _, want := range []string{
		"vdo-serve: 100 hosts",
		"baseline: compliance",
		"status t=",
		"vdo-serve session: ",
		"flushes / delta hosts",
		"checks per event",
		"final compliance",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeAlarmsMatchLiveLines pins the session's alarm count to the
// ALARM lines the session printed: the alarms the priming baseline
// raised are the baseline's, not the session's.
func TestServeAlarmsMatchLiveLines(t *testing.T) {
	code, out, errb := runCapture(t, context.Background(),
		"-hosts", "100", "-duration", "300ms", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	lines, alarms := 0, -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ALARM ") {
			lines++
		}
		if rest, ok := strings.CutPrefix(line, "alarms / repairs"); ok {
			if _, err := fmt.Sscanf(rest, "%d /", &alarms); err != nil {
				t.Fatalf("unparsable alarms row %q: %v", line, err)
			}
		}
	}
	if alarms < 0 {
		t.Fatalf("no alarms / repairs row:\n%s", out)
	}
	if lines == 0 {
		t.Fatalf("no ALARM lines; the check is vacuous:\n%s", out)
	}
	if alarms != lines {
		t.Errorf("summary counts %d alarms, session printed %d ALARM lines:\n%s", alarms, lines, out)
	}
}

func TestServeStopsOnContextCancel(t *testing.T) {
	// -duration 0 means run until the signal context fires; the test
	// stands in for SIGINT with a deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	code, out, _ := runCapture(t, ctx,
		"-hosts", "50", "-window", "20ms",
		"-rate", "100", "-shards", "2", "-workers", "1", "-quiet")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "vdo-serve session: ") {
		t.Errorf("no shutdown summary after cancellation:\n%s", out)
	}
	if strings.Contains(out, "ALARM") || strings.Contains(out, "status t=") {
		t.Errorf("-quiet still printed live lines:\n%s", out)
	}
}

func TestServeMetricsAndTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "top.json")
	spec := `{"classes": [{"name": "tiny", "weight": 1}], "mix": {"config_edit": 1}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCapture(t, context.Background(),
		"-topology", path, "-hosts", "20", "-duration", "150ms",
		"-window", "25ms", "-rate", "50", "-shards", "2", "-workers", "1",
		"-metrics", "-quiet")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "stream.flushes") {
		t.Errorf("metrics table missing stream.* entries:\n%s", out)
	}
}

func TestServeUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad flag":     {"-definitely-not-a-flag"},
		"zero hosts":   {"-hosts", "0"},
		"zero rate":    {"-rate", "0"},
		"zero window":  {"-window", "0s"},
		"retired flag": {"-sweep-fallback", "500ms"},
		"missing topo": {"-topology", filepath.Join(t.TempDir(), "absent.json")},
	} {
		if code, _, _ := runCapture(t, context.Background(), args...); code != 2 {
			t.Errorf("%s: exit = %d, want 2", name, code)
		}
	}
}
