//go:build race

package host

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation changes allocation counts, so the allocation test is
// skipped.
const raceEnabled = true
