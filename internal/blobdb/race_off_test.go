//go:build !race

package blobdb

// raceEnabled is true when the race detector is active.
const raceEnabled = false
