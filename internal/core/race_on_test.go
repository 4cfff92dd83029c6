//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation inflates allocations, so the allocation gates skip.
const raceEnabled = true
