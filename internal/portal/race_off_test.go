//go:build !race

package portal

// raceEnabled is true when the race detector is active.
const raceEnabled = false
