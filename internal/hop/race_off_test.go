//go:build !race

package hop

// raceEnabled is true when the race detector is active.
const raceEnabled = false
