//go:build race

package query

// raceEnabled reports a -race build: the detector makes sync.Pool drop
// items at random, so allocation counts stop being deterministic.
const raceEnabled = true
