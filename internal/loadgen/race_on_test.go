//go:build race

package loadgen

// raceEnabled reports whether the race detector is compiled in; its
// shadow memory and instrumentation inflate live-heap readings, so the
// retained-heap gate is skipped.
const raceEnabled = true
