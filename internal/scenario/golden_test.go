package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusRendering is what a golden file holds for one (spec, mode) run:
// the Report() rendering followed by the virtual-time schedule, indented
// the way vdo-scenario -v prints it.
func corpusRendering(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Report())
	for _, line := range res.Schedule {
		b.WriteString("    ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCorpusGolden replays every examples/scenarios spec in both modes
// and requires the rendering to match testdata/<spec>.<mode>.golden byte
// for byte. The goldens are checked in; there is deliberately no flag
// that rewrites them, so a change to any report, schedule line, verdict
// or episode count shows up here as a diff to justify.
func TestCorpusGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus specs found")
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		base := strings.TrimSuffix(filepath.Base(p), ".json")
		for _, mode := range []string{"sweep", "push"} {
			res, err := Run(sp, Options{Push: mode == "push"})
			if err != nil {
				t.Fatalf("%s %s: %v", base, mode, err)
			}
			golden := filepath.Join("testdata", base+"."+mode+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%s: %v", golden, err)
			}
			if got := corpusRendering(res); got != string(want) {
				t.Errorf("%s: rendering differs from %s\n--- got ---\n%s", base, golden, got)
			}
		}
	}
}
