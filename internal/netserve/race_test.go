//go:build race

package netserve

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random share of Puts and adds allocations of its own, so allocation
// counts are not the steady state a normal build has.
const raceEnabled = true
