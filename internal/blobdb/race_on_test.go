//go:build race

package blobdb

// raceEnabled is true when the race detector is active: allocation counts
// then include the detector's own, so a guard that counts objects, or
// bytes to within a few KB, does not hold.
const raceEnabled = true
