//go:build !race

package sizedio

// raceEnabled is true when the race detector is active.
const raceEnabled = false
