//go:build race

package serve

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random share of Puts, so allocation counts over pooled bursts are not
// the steady state a normal build has.
const raceEnabled = true
