//go:build !race

package selfheal

const raceEnabled = false
