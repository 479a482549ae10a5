//go:build race

package sizedio

// raceEnabled is true when the race detector is active: sync.Pool then
// drops a quarter of its Puts at random, so a byte budget that counts on
// the pooled copy buffer does not hold.
const raceEnabled = true
