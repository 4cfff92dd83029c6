//go:build race

package fleet

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation slows traced and untraced sweeps unevenly, so the
// tracing-overhead gate is skipped.
const raceEnabled = true
