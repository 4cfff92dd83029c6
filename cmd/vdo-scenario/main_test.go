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

// corpusSpec is one spec of the shipped incident corpus.
var corpusSpec = filepath.Join("..", "..", "examples", "scenarios", "flapping-service.json")

// writeSpec writes a spec file into a fresh temp directory.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"retired mode flag": {"-run", corpusSpec, "-push"},
		"missing path":      {"-run", filepath.Join(t.TempDir(), "absent.json")},
		"malformed spec":    {"-run", writeSpec(t, `{"name": "x", "hosts": `)},
		"bad flag":          {"-definitely-not-a-flag"},
	} {
		if code, out, errb := runCapture(t, args...); code != 2 {
			t.Errorf("%s: exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", name, code, out, errb)
		}
	}
}

func TestCorpusSpecPasses(t *testing.T) {
	code, out, errb := runCapture(t, "-run", corpusSpec)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	for _, want := range []string{
		"scenario flapping-service: PASS",
		"1 scenario(s), 0 failure(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFailingExpectExitsOne(t *testing.T) {
	spec := writeSpec(t, `{"name": "never-five", "hosts": 2, "seed": 1,
		"steps": [{"at": "500ms", "expect": "alarms", "op": "==", "num": 5}]}`)
	code, out, errb := runCapture(t, "-run", spec)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "FAIL #0") || !strings.Contains(out, "1 scenario(s), 1 failure(s)") {
		t.Errorf("failing step not reported:\n%s", out)
	}
}

// TestSlowestShowsDeltas: -slowest prints the N slowest host deltas of
// the flushes; the reference sweep is not traced, so no host audits.
func TestSlowestShowsDeltas(t *testing.T) {
	code, out, errb := runCapture(t, "-run", corpusSpec, "-slowest", "2")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "name=delta | slowest 2") {
		t.Errorf("output missing the delta query:\n%s", out)
	}
	if strings.Contains(out, "name=host") {
		t.Errorf("output queries host audits:\n%s", out)
	}
}
