//go:build !race

package appliance_test

// raceEnabled is true when the race detector is active.
const raceEnabled = false
