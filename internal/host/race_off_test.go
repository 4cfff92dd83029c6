//go:build !race

package host

const raceEnabled = false
