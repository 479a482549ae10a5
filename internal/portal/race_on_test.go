//go:build race

package portal

// raceEnabled is true when the race detector is active: sync.Pool then
// drops a quarter of its Puts at random, so byte budgets that count on
// blobdb's pooled gzip writer do not hold.
const raceEnabled = true
