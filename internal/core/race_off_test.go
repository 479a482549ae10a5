//go:build !race

package core

// raceEnabled is true when the race detector is active.
const raceEnabled = false
