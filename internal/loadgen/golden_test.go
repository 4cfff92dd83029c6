package loadgen

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// replayRendering renders every LoadStats field of one replay except the
// two real-clock ones (ReplayWall, RealEventsPerSec), one "Field: value"
// line each in declaration order. Everything it prints is a function of
// the seed on the virtual clock.
func replayRendering(st LoadStats) string {
	var b strings.Builder
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "ReplayWall" || name == "RealEventsPerSec" {
			continue
		}
		fmt.Fprintf(&b, "%s: %+v\n", name, v.Field(i).Interface())
	}
	return b.String()
}

// TestReplayGolden replays one seeded synthesized fleet in sweep and
// push mode at two churn rates, with the settings of the sweep-vs-push
// comparison (500ms sweeps, 25ms push window, burst 16), and requires
// the rendering to match testdata/replay.golden byte for byte. It is the
// replay-level equivalence oracle: a refactor of the driver, the
// coordinator or the streamer that changes any virtual-clock outcome
// shows up here as a diff to justify. There is deliberately no flag that
// rewrites the golden.
func TestReplayGolden(t *testing.T) {
	golden := filepath.Join("testdata", "replay.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenReplays(t); got != string(want) {
		t.Errorf("rendering differs from %s\n--- got ---\n%s", golden, got)
	}
}

// goldenReplays runs the four replays TestReplayGolden pins and returns
// their concatenated renderings.
func goldenReplays(t *testing.T) string {
	top := DefaultTopology()
	var b strings.Builder
	for _, rate := range []float64{500, 2000} {
		for _, push := range []bool{false, true} {
			f, err := Synthesize(top, 600, 2)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Run(f, NewChurn(f, top.Mix, 3), DriverOptions{
				Duration:   10 * time.Second,
				SweepEvery: 500 * time.Millisecond,
				Push:       push,
				Window:     25 * time.Millisecond,
				Rate:       rate,
				Burst:      16,
				Shards:     4,
				Workers:    2,
			})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s @ %.0f ev/s ==\n%s", st.Mode, rate, replayRendering(st))
		}
	}
	return b.String()
}
