//go:build race

package selfheal

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random share of Puts, so allocation counts are not the steady state a
// normal build has.
const raceEnabled = true
